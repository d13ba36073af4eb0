/**
 * @file
 * InstructionDispatcher: the execution-unit scheduler block (Figure 5,
 * section 3.2).
 *
 * Each decision round it selects the next MMU occupant: scans the batch
 * queue port for a dependence-ready inference batch (FIFO within a
 * context, round-robin across contexts), checks training readiness
 * (staged operands, dependence, storm shedding), consults the pluggable
 * SchedulingPolicy for vetoes, and round-robins between the survivors.
 * The actual cycle charging happens in the Datapath block it issues to.
 */

#ifndef EQUINOX_SIM_BLOCKS_INSTRUCTION_DISPATCHER_HH
#define EQUINOX_SIM_BLOCKS_INSTRUCTION_DISPATCHER_HH

#include <memory>

#include "common/types.hh"
#include "sim/blocks/inf_types.hh"
#include "sim/blocks/scheduling_policy.hh"
#include "sim/blocks/sim_block.hh"

namespace equinox
{
namespace sim
{

class Datapath;
class FaultUnit;
class RequestDispatcher;
class TrainPrefetcher;

/** Execution-unit scheduler between inference contexts and training. */
class InstructionDispatcher final : public SimBlock
{
  public:
    explicit InstructionDispatcher(SimContext &context);
    ~InstructionDispatcher() override;

    /** Wire control ports (composition root, once). */
    void connect(Datapath *datapath_, RequestDispatcher *requests_,
                 TrainPrefetcher *prefetcher_, FaultUnit *faults_);

    void resetRun() override;
    void registerStats(stats::StatRegistry &reg) override;

    /**
     * Run one scheduling round: pick the next MMU occupant and issue
     * it, or arm a wakeup at the earliest dependence-ready tick.
     * Idempotent and cheap when the MMU is busy/hung or nothing is
     * ready; every block pokes this after making new work available.
     * With the MMU free it first settles the prefetcher's deferred
     * staging fills, and a round that issues nothing turns the ones
     * still in flight back into events (TrainPrefetcher).
     */
    void tryDispatch();

    /** The datapath started serving @p id (cross-context round-robin). */
    void noteInferenceServed(ContextId id) { last_served_ctx = id; }

    /** A dependence-ready batch exists right now (pure query). */
    bool firstReadyBatchWaiting() { return firstReadyBatch() != nullptr; }

    /** The active policy (owned; replaced only between runs). */
    SchedulingPolicy &policy() { return *policy_; }

  private:
    InfBatch *firstReadyBatch();
    bool inferenceQueueLow() const;
    bool spikeDetected() const;
    bool trainingReady() const;
    void scheduleWake(Tick at, bool tail = false);

    Datapath *datapath = nullptr;
    RequestDispatcher *requests = nullptr;
    TrainPrefetcher *prefetcher = nullptr;
    FaultUnit *faults = nullptr;

    std::unique_ptr<SchedulingPolicy> policy_;
    /**
     * Reusable policy view: the lazy pending-work closure is built once
     * instead of on every scheduling round; tryDispatch() only
     * refreshes the scalars.
     */
    SchedulerView view_;
    /**
     * Ticks with an armed tryDispatch() wakeup. Completion paths used
     * to re-arm an identical wake after every same-gap arrival; the
     * dedup drops the extra no-op events without moving any wake to a
     * different tick (so dispatch order and final now() are unchanged,
     * keeping the golden digests byte-identical). Bounded by the number
     * of distinct dependence-ready ticks in flight, in practice <= 2.
     */
    std::vector<Tick> armed_wakes_;
    bool prefer_training = false;  //!< round-robin alternation latch
    /**
     * Cross-context round-robin cursor. Deliberately NOT cleared by
     * resetRun(): the monolithic simulator carried it across run()
     * calls, and byte-identical replay requires keeping that.
     */
    ContextId last_served_ctx = 0;

    // observability (run totals)
    std::uint64_t rounds = 0;          //!< dispatch rounds entered
    std::uint64_t inf_issues = 0;      //!< inference chunks issued
    std::uint64_t train_issues = 0;    //!< training chunks issued
};

} // namespace sim
} // namespace equinox

#endif // EQUINOX_SIM_BLOCKS_INSTRUCTION_DISPATCHER_HH
