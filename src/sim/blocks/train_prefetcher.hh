/**
 * @file
 * TrainPrefetcher: the training operand-staging block (section 2.2).
 *
 * Streams the training iteration's operands from DRAM into the staging
 * share of the activation buffer at best-effort priority, in bounded
 * chunks, as far ahead as staging capacity allows. The datapath drains
 * staged bytes as it issues training chunks and pumps the prefetcher
 * again so DRAM streams while the array computes.
 *
 * A fill that lands while the MMU is busy only moves bytes from in
 * flight to staged: its pump() finds staging as full as before and its
 * tryDispatch() returns at the busy check. So where nothing else can
 * react to a landing (passthrough hierarchy, no fault plan, not the
 * reference path, landing at or before the run's last tick) a fill is
 * not scheduled: it is deferred under a reserved event seq, settle()
 * applies it at the next read of the staging state, and materialize()
 * turns whatever has not landed back into events when the array goes
 * idle. DESIGN.md section 2.7 gives the exactness argument.
 */

#ifndef EQUINOX_SIM_BLOCKS_TRAIN_PREFETCHER_HH
#define EQUINOX_SIM_BLOCKS_TRAIN_PREFETCHER_HH

#include "common/types.hh"
#include "sim/blocks/sim_block.hh"

namespace equinox
{
namespace sim
{

class FaultUnit;
class InstructionDispatcher;

/** DRAM-to-staging prefetch engine for the training context. */
class TrainPrefetcher final : public SimBlock
{
  public:
    /** Training prefetch granularity over the DRAM interface. */
    static constexpr ByteCount kPrefetchChunk = 256 * 1024;

    /**
     * Largest prefetch transfer into a staging share of @p capacity
     * bytes (TrainState::prefetch_chunk, set at install).
     */
    static ByteCount chunkLimit(ByteCount capacity);

    explicit TrainPrefetcher(SimContext &context);
    ~TrainPrefetcher() override;

    /** Wire control ports (composition root, once). */
    void connect(InstructionDispatcher *dispatcher_, FaultUnit *faults_);

    void resetRun() override;
    void registerStats(stats::StatRegistry &reg) override;

    /**
     * Decide, once the run's fault plan is known, whether this run
     * defers fills, and up to which landing tick (@p max_ticks, the
     * run loop's horizon).
     */
    void beginRun(Tick max_ticks);

    /**
     * Issue prefetches until staging is as full as capacity allows (or
     * the program streams nothing). Safe to call at any time; no-op
     * without a training context or once the run is stopping.
     */
    void pump();

    /**
     * Apply, in issue order, every deferred fill that has landed by
     * now. Called before each read of the staging state, so the check
     * for a landed fill is inline.
     */
    void
    settle()
    {
        const auto &fills = ctx.train->deferred_fills;
        if (!fills.empty() && fills.front().done <= ctx.events.now())
            settleLanded();
    }

    /**
     * Schedule every deferred fill still in flight as the completion
     * event it stands for, under the seq reserved at its issue. Called
     * when the array goes idle, where a landing can start work again.
     */
    void materialize();

    /** Fills landed by settle() without an event (run total). */
    std::uint64_t fillsDeferred() const { return fills_deferred; }

  private:
    /**
     * The completion event of a fill of @p chunk bytes issued in
     * training epoch @p epoch (stale after a rollback).
     */
    void land(ByteCount chunk, std::uint64_t epoch, bool banked);

    /** settle() once the first deferred fill has landed. */
    void settleLanded();

    InstructionDispatcher *dispatcher = nullptr;
    FaultUnit *faults = nullptr;

    /** This run defers fills landing at or before defer_until. */
    bool defer = false;
    Tick defer_until = 0;

    // observability (run totals)
    std::uint64_t prefetches_issued = 0;
    ByteCount prefetch_bytes = 0;
    std::uint64_t fills_deferred = 0;
};

} // namespace sim
} // namespace equinox

#endif // EQUINOX_SIM_BLOCKS_TRAIN_PREFETCHER_HH
