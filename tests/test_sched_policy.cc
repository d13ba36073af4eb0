/**
 * @file
 * Unit tests for the pluggable execution-unit scheduling policies
 * (section 3.2), exercising every decision point in isolation: the
 * priority scheduler's three regimes (round-robin, inference-first,
 * spike freeze), the fair-share and inference-only baselines, and the
 * software control plane's idle/turnaround/exclusive gating.
 */

#include <gtest/gtest.h>

#include "sim/blocks/scheduling_policy.hh"
#include "sim/config.hh"

namespace equinox
{
namespace sim
{
namespace
{

/** A view with every signal pinned to an explicit value. */
SchedulerView
view(bool inf_ready, bool train_ready, bool spike, bool queue_low,
     std::uint64_t pending = 0, Tick now = 0)
{
    SchedulerView v;
    v.now = now;
    v.inference_ready = inf_ready;
    v.training_ready = train_ready;
    v.spike = spike;
    v.queue_low = queue_low;
    v.pending_work = [pending] { return pending; };
    return v;
}

TEST(InferenceOnlyPolicy, AlwaysVetoesTraining)
{
    InferenceOnlyPolicy p;
    auto d = p.decide(view(true, true, false, true));
    EXPECT_TRUE(d.allow_inference);
    EXPECT_FALSE(d.allow_training);

    d = p.decide(view(false, true, false, true));
    EXPECT_FALSE(d.allow_training);
    EXPECT_EQ(d.revisit_at, kTickMax);
}

TEST(PriorityPolicy, RoundRobinWhileQueueLow)
{
    // Regime 1 (section 3.2): low inference queuing, both classes may
    // issue -- the dispatcher's alternation interleaves them.
    PriorityPolicy p;
    auto d = p.decide(view(true, true, /*spike=*/false,
                           /*queue_low=*/true));
    EXPECT_TRUE(d.allow_inference);
    EXPECT_TRUE(d.allow_training);
}

TEST(PriorityPolicy, InferenceFirstWhenBatchesBackUp)
{
    // Regime 2: queuing is no longer low and a batch is ready, so
    // training is held back and inference issues first.
    PriorityPolicy p;
    auto d = p.decide(view(/*inf_ready=*/true, true, /*spike=*/false,
                           /*queue_low=*/false));
    EXPECT_TRUE(d.allow_inference);
    EXPECT_FALSE(d.allow_training);
}

TEST(PriorityPolicy, TrainingFillsDependenceGaps)
{
    // Regime 2 corollary: batches are backed up but none is
    // dependence-ready this round (a "gap") -- training may fill it.
    PriorityPolicy p;
    auto d = p.decide(view(/*inf_ready=*/false, true, /*spike=*/false,
                           /*queue_low=*/false));
    EXPECT_TRUE(d.allow_training);
}

TEST(PriorityPolicy, SpikeFreezesTrainingEntirely)
{
    // Regime 3: a load spike freezes training even in dependence gaps.
    PriorityPolicy p;
    auto d = p.decide(view(/*inf_ready=*/false, true, /*spike=*/true,
                           /*queue_low=*/false));
    EXPECT_FALSE(d.allow_training);
    EXPECT_TRUE(d.allow_inference);
}

TEST(FairSharePolicy, NeverVetoes)
{
    FairSharePolicy p;
    auto d = p.decide(view(true, true, true, false));
    EXPECT_TRUE(d.allow_inference);
    EXPECT_TRUE(d.allow_training);
    EXPECT_EQ(d.revisit_at, kTickMax);
}

TEST(SoftwareBatchPolicy, TrainingNeedsFullyIdleMachine)
{
    SoftwareBatchPolicy p(/*turnaround_cycles=*/100);
    p.reset();
    // Pending raw requests keep the machine non-idle even when no batch
    // is dependence-ready: the software scheduler must not start
    // training it could not preempt.
    auto d = p.decide(view(/*inf_ready=*/false, true, false, true,
                           /*pending=*/3, /*now=*/1000));
    EXPECT_FALSE(d.allow_training);
    EXPECT_EQ(d.revisit_at, kTickMax); // not idle: no revisit armed
}

TEST(SoftwareBatchPolicy, TurnaroundGateDelaysIdleIssue)
{
    SoftwareBatchPolicy p(/*turnaround_cycles=*/100);
    p.reset();
    // Issue once at t=50: the latch engages and the next decision
    // cannot happen before t=150.
    auto d = p.decide(view(false, true, false, true, 0, /*now=*/50));
    EXPECT_TRUE(d.allow_training);
    p.onTrainingIssue(50);
    EXPECT_TRUE(p.exclusiveTraining());
    p.onTrainingIteration();
    EXPECT_FALSE(p.exclusiveTraining());

    // Idle again at t=100, inside the turnaround: veto, and ask the
    // dispatcher to revisit exactly when the gate opens.
    d = p.decide(view(false, true, false, true, 0, /*now=*/100));
    EXPECT_FALSE(d.allow_training);
    EXPECT_EQ(d.revisit_at, 150u);

    // At the gate the veto lifts.
    d = p.decide(view(false, true, false, true, 0, /*now=*/150));
    EXPECT_TRUE(d.allow_training);
}

TEST(SoftwareBatchPolicy, ExclusiveTrainingBlocksInference)
{
    SoftwareBatchPolicy p(/*turnaround_cycles=*/10);
    p.reset();
    p.onTrainingIssue(0);
    // A software-scheduled training batch cannot be preempted: even a
    // ready inference batch must wait for the iteration to retire.
    auto d = p.decide(view(/*inf_ready=*/true, false, false, true, 5,
                           /*now=*/3));
    EXPECT_FALSE(d.allow_inference);
    p.onTrainingIteration();
    d = p.decide(view(true, false, false, true, 5, /*now=*/4));
    EXPECT_TRUE(d.allow_inference);
}

TEST(SoftwareBatchPolicy, ResetClearsLatchAndGate)
{
    SoftwareBatchPolicy p(/*turnaround_cycles=*/1000);
    p.onTrainingIssue(500); // latch + gate at 1500
    p.reset();
    EXPECT_FALSE(p.exclusiveTraining());
    auto d = p.decide(view(false, true, false, true, 0, /*now=*/0));
    EXPECT_TRUE(d.allow_training);
}

TEST(SchedulingPolicyFactory, BuildsConfiguredPolicy)
{
    AcceleratorConfig cfg;
    cfg.sched_policy = SchedPolicy::InferenceOnly;
    EXPECT_STREQ(makeSchedulingPolicy(cfg)->name(), "inference_only");
    cfg.sched_policy = SchedPolicy::Priority;
    EXPECT_STREQ(makeSchedulingPolicy(cfg)->name(), "priority");
    cfg.sched_policy = SchedPolicy::FairShare;
    EXPECT_STREQ(makeSchedulingPolicy(cfg)->name(), "fair_share");
    cfg.sched_policy = SchedPolicy::SoftwareBatch;
    EXPECT_STREQ(makeSchedulingPolicy(cfg)->name(), "software_batch");
}

TEST(SchedulingPolicyLaziness, PredicatesOnlyPaidWhenConsulted)
{
    // Spike and queue-low are O(1) counter reads handed over as plain
    // bools; only the pending-work count is lazy, so a policy that
    // does not consult it never pays for its scan. The hardware
    // policies never consult it; the software scheduler consults it
    // once, and only when training is ready and no batch is.
    int pending_calls = 0;
    SchedulerView v;
    v.inference_ready = true;
    v.training_ready = true;
    v.spike = false;
    v.queue_low = true;
    v.pending_work = [&] {
        ++pending_calls;
        return std::uint64_t{0};
    };
    InferenceOnlyPolicy inference_only;
    PriorityPolicy priority;
    FairSharePolicy fair_share;
    SchedulingPolicy *hardware[] = {&inference_only, &priority,
                                    &fair_share};
    for (SchedulingPolicy *p : hardware) {
        for (bool spike : {false, true}) {
            v.spike = spike;
            (void)p->decide(v);
        }
    }
    EXPECT_EQ(pending_calls, 0);

    SoftwareBatchPolicy software(/*turnaround_cycles=*/10);
    software.reset();
    (void)software.decide(v); // a batch is ready: not idle, no scan
    EXPECT_EQ(pending_calls, 0);
    v.inference_ready = false;
    auto d = software.decide(v);
    EXPECT_EQ(pending_calls, 1);
    EXPECT_TRUE(d.allow_training);
}

} // namespace
} // namespace sim
} // namespace equinox
