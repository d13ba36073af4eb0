/**
 * @file
 * Pluggable execution-unit scheduling policies (Figure 5, section 3.2).
 *
 * Each decision round the instruction dispatcher fills a SchedulerView
 * of the machine -- what is ready, the spike and queue-low signals, and
 * a lazy count of pending work -- and asks the installed policy which
 * service classes may issue. The dispatcher keeps the round-robin
 * alternation and the actual issue; the policy only vetoes.
 *
 * To add a policy: subclass SchedulingPolicy, implement decide(), and
 * extend makeSchedulingPolicy(); nothing else in the simulator changes.
 */

#ifndef EQUINOX_SIM_BLOCKS_SCHEDULING_POLICY_HH
#define EQUINOX_SIM_BLOCKS_SCHEDULING_POLICY_HH

#include <functional>
#include <memory>

#include "common/types.hh"
#include "sim/config.hh"

namespace equinox
{
namespace sim
{

/**
 * What a policy can see of the machine at one decision round. The
 * spike and queue-low signals are O(1) counter reads, filled in every
 * round; only the pending-work count, a scan the software scheduler
 * alone consults, stays a lazy (pure) function.
 */
struct SchedulerView
{
    Tick now = 0;
    /** A formed batch is dependence-ready for the MMU. */
    bool inference_ready = false;
    /** Training has staged operands and is dependence-ready. */
    bool training_ready = false;
    /** Load spike: unstarted batches piled past the install threshold. */
    bool spike = false;
    /** At most one batch anywhere and no full raw batch waiting. */
    bool queue_low = false;
    /** Raw requests + unfinished batched requests in the pipeline. */
    std::function<std::uint64_t()> pending_work;
};

/** A policy's verdict for one decision round. */
struct SchedDecision
{
    bool allow_inference = true;
    bool allow_training = true;
    /**
     * When != kTickMax: re-run the dispatcher at this tick even if no
     * completion wakes it (used by the software scheduler's decision
     * turnaround gate).
     */
    Tick revisit_at = kTickMax;
};

/** Strategy interface the instruction dispatcher consults. */
class SchedulingPolicy
{
  public:
    virtual ~SchedulingPolicy() = default;

    virtual const char *name() const = 0;

    /** Clear per-run state (start of Accelerator::run). */
    virtual void reset() {}

    /**
     * Veto service classes for this round. Must not schedule events,
     * and must not read view.now while inference is ready unless it
     * sets revisit_at: the dispatcher folds rounds whose views differ
     * only in now into one inference span (DESIGN.md section 2.7).
     */
    virtual SchedDecision decide(const SchedulerView &view) = 0;

    /** Training issued as the sole winner of the round at @p now. */
    virtual void onTrainingIssue(Tick now) { (void)now; }

    /** A full training iteration just retired. */
    virtual void onTrainingIteration() {}
};

/** Baseline: training never issues. */
class InferenceOnlyPolicy final : public SchedulingPolicy
{
  public:
    const char *name() const override { return "inference_only"; }
    SchedDecision decide(const SchedulerView &view) override;
};

/**
 * The paper's hardware priority scheduler, three regimes: round-robin
 * while inference queuing is low; inference-first (training fills
 * dependence gaps) when batches back up; training frozen entirely
 * during a load spike.
 */
class PriorityPolicy final : public SchedulingPolicy
{
  public:
    const char *name() const override { return "priority"; }
    SchedDecision decide(const SchedulerView &view) override;
};

/** Hardware fair-share: always round-robin, never vetoes. */
class FairSharePolicy final : public SchedulingPolicy
{
  public:
    const char *name() const override { return "fair_share"; }
    SchedDecision decide(const SchedulerView &view) override;
};

/**
 * The section-6 software control plane: training only at batch
 * granularity, only into a fully idle machine, and only after the
 * software decision turnaround elapses; once issued, the training
 * batch cannot be preempted until its iteration retires.
 */
class SoftwareBatchPolicy final : public SchedulingPolicy
{
  public:
    explicit SoftwareBatchPolicy(Tick turnaround_cycles)
        : turnaround(turnaround_cycles)
    {
    }

    const char *name() const override { return "software_batch"; }
    void reset() override;
    SchedDecision decide(const SchedulerView &view) override;
    void onTrainingIssue(Tick now) override;
    void onTrainingIteration() override;

    /** Exposed for tests: the unpreemptible-training latch. */
    bool exclusiveTraining() const { return exclusive_training; }

  private:
    Tick turnaround;
    Tick next_decision = 0;       //!< decision-turnaround gate
    bool exclusive_training = false;
};

/** Build the policy configured by @p cfg.sched_policy. */
std::unique_ptr<SchedulingPolicy>
makeSchedulingPolicy(const AcceleratorConfig &cfg);

} // namespace sim
} // namespace equinox

#endif // EQUINOX_SIM_BLOCKS_SCHEDULING_POLICY_HH
