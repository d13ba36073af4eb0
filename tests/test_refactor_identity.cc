/**
 * @file
 * Golden-baseline identity tests for the block/port simulator refactor.
 *
 * Each scenario runs a small mixed inference+training workload and folds
 * every field of the SimResult -- including the full fault trace -- into
 * one FNV-1a digest over exact bit patterns (tests/sim_digest.hh). The
 * golden constants were recorded from the pre-refactor monolithic
 * simulator (commit "fault-injection and recovery subsystem"); the
 * decomposed simulator must reproduce them bit-for-bit for identical
 * seeds and configs.
 *
 * A digest mismatch means the refactor changed behaviour: event
 * insertion order, an RNG draw, or a floating-point accumulation order
 * moved. Fix the refactor, do not re-record the constants, unless a PR
 * deliberately changes simulated behaviour (then re-record and say so).
 */

#include <gtest/gtest.h>

#include "sim_digest.hh"

namespace equinox
{
namespace sim
{
namespace
{

using testutil::digestOf;
using testutil::runScenario;

TEST(RefactorIdentity, FaultFreePriorityScheduler)
{
    auto res = runScenario(SchedPolicy::Priority, {});
    EXPECT_EQ(res.faults.totalFaults(), 0u);
    EXPECT_EQ(digestOf(res), testutil::kGoldenFaultFreePriority);
}

TEST(RefactorIdentity, FaultFreeFairShareScheduler)
{
    auto res = runScenario(SchedPolicy::FairShare, {});
    EXPECT_EQ(digestOf(res), testutil::kGoldenFaultFreeFairShare);
}

TEST(RefactorIdentity, ActiveFaultPlan)
{
    // The plan from FaultDeterminism: dense enough that ECC corrections,
    // host drops with retries, hangs, watchdog resets and rollbacks all
    // occur inside the short run.
    auto res = runScenario(SchedPolicy::Priority, testutil::densePlan());
    EXPECT_GT(res.faults.totalFaults(), 0u);
    EXPECT_GT(res.fault_trace.size(), 0u);
    EXPECT_EQ(digestOf(res), testutil::kGoldenActiveFaultPlan);
}

TEST(RefactorIdentity, TrainingOnlyRun)
{
    auto res = testutil::runTrainingOnly();
    EXPECT_EQ(res.training_iterations, 25u);
    EXPECT_EQ(digestOf(res), testutil::kGoldenTrainingOnly);
}

TEST(RefactorIdentity, TwoTenantRun)
{
    // Two inference services plus training: the run-level latency set
    // is the union of the per-service sets, so fold its order
    // statistics next to every SimResult field.
    auto cfg = testutil::smallConfig();
    workload::Compiler compiler(cfg);
    Accelerator accel(cfg);
    auto second = testutil::tinyRnn();
    second.rnn.hidden = 48;
    accel.installInference(compiler.compileInference(testutil::tinyRnn()));
    accel.installInference(compiler.compileInference(second));
    accel.installTraining(
        compiler.compileTraining(testutil::tinyRnn(), 16));
    RunSpec spec;
    spec.arrival_rates = {0.25 * accel.maxRequestRate(0),
                          0.2 * accel.maxRequestRate(1)};
    spec.warmup_requests = 50;
    spec.measure_requests = 600;
    spec.seed = 31;
    auto res = accel.run(spec);
    ASSERT_EQ(res.per_service.size(), 2u);
    EXPECT_EQ(res.latency_cycles.count(), res.per_service[0].completed +
                                              res.per_service[1].completed);

    testutil::ResultDigest dg;
    testutil::foldSim(dg, res);
    const auto &lat = res.latency_cycles;
    dg.u64(lat.count());
    dg.d(lat.mean());
    for (double p : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0})
        dg.d(lat.percentile(p));
    EXPECT_EQ(dg.value(), 312847034753523190ull);
}

} // namespace
} // namespace sim
} // namespace equinox
