/**
 * @file
 * TrainPrefetcher: the training operand-staging block (section 2.2).
 *
 * Streams the training iteration's operands from DRAM into the staging
 * share of the activation buffer at best-effort priority, in bounded
 * chunks, as far ahead as staging capacity allows. The datapath drains
 * staged bytes as it issues training chunks and pumps the prefetcher
 * again so DRAM streams while the array computes.
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
     * Issue prefetches until staging is as full as capacity allows (or
     * the program streams nothing). Safe to call at any time; no-op
     * without a training context or once the run is stopping.
     */
    void pump();

  private:
    InstructionDispatcher *dispatcher = nullptr;
    FaultUnit *faults = nullptr;

    // observability (run totals)
    std::uint64_t prefetches_issued = 0;
    ByteCount prefetch_bytes = 0;
};

} // namespace sim
} // namespace equinox

#endif // EQUINOX_SIM_BLOCKS_TRAIN_PREFETCHER_HH
