#include "sim/blocks/scheduling_policy.hh"

#include "common/logging.hh"
#include "common/units.hh"

namespace equinox
{
namespace sim
{

SchedDecision
InferenceOnlyPolicy::decide(const SchedulerView &)
{
    SchedDecision d;
    d.allow_training = false;
    return d;
}

SchedDecision
PriorityPolicy::decide(const SchedulerView &view)
{
    SchedDecision d;
    if (view.spike) {
        // Load spike: training frozen entirely (section 3.2).
        d.allow_training = false;
    } else if (!view.queue_low && view.inference_ready) {
        // Batches backed up: inference issues first; training only
        // fills its dependence gaps (rounds with no ready batch).
        d.allow_training = false;
    }
    return d;
}

SchedDecision
FairSharePolicy::decide(const SchedulerView &)
{
    return {};
}

void
SoftwareBatchPolicy::reset()
{
    next_decision = 0;
    exclusive_training = false;
}

SchedDecision
SoftwareBatchPolicy::decide(const SchedulerView &view)
{
    SchedDecision d;
    if (exclusive_training) {
        // A software-scheduled training batch cannot be preempted.
        d.allow_inference = false;
    } else if (view.training_ready) {
        // The software control plane schedules training only at batch
        // granularity, only into a fully idle accelerator, and only
        // after its decision turnaround elapses.
        bool idle = !view.inference_ready && view.pending_work() == 0;
        if (!idle || view.now < next_decision) {
            d.allow_training = false;
            if (idle && view.now < next_decision)
                d.revisit_at = next_decision;
        }
    }
    return d;
}

void
SoftwareBatchPolicy::onTrainingIssue(Tick now)
{
    exclusive_training = true;
    next_decision = now + turnaround;
}

void
SoftwareBatchPolicy::onTrainingIteration()
{
    exclusive_training = false;
}

std::unique_ptr<SchedulingPolicy>
makeSchedulingPolicy(const AcceleratorConfig &cfg)
{
    switch (cfg.sched_policy) {
      case SchedPolicy::InferenceOnly:
        return std::make_unique<InferenceOnlyPolicy>();
      case SchedPolicy::Priority:
        return std::make_unique<PriorityPolicy>();
      case SchedPolicy::FairShare:
        return std::make_unique<FairSharePolicy>();
      case SchedPolicy::SoftwareBatch:
        return std::make_unique<SoftwareBatchPolicy>(
            units::secondsToCycles(cfg.software_turnaround_s,
                                   cfg.frequency_hz));
    }
    EQX_FATAL("unknown scheduling policy");
}

} // namespace sim
} // namespace equinox
