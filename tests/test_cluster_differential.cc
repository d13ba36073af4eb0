/**
 * @file
 * Differential tests pinning the cluster layer to the single-chip
 * simulator it is built from:
 *
 *  - the one arrival generator, ArrivalStream, draws exactly the
 *    longhand seed recipe for stream indices 0, 1 and 2,
 *  - the tick-trace arrival mode replays a stochastic run
 *    byte-identically (the lemma the router's stream splitting
 *    depends on),
 *  - a 1-replica Cluster is byte-identical to runAtLoad under every
 *    routing policy, fault-free, with an active fault plan, and
 *    training-only,
 *  - a multi-replica cluster point is byte-identical across jobs
 *    counts (the one-replica-per-worker fan-out is pure),
 *  - the golden refactor-identity digests are untouched by the
 *    SimResult fields the cluster layer added.
 */

#include <gtest/gtest.h>

#include "cluster/cluster.hh"
#include "cluster/sweep.hh"
#include "cluster_digest.hh"
#include "common/random.hh"
#include "core/experiment.hh"

namespace equinox
{
namespace
{

/** The tiny sweep design test_parallel_identity uses. */
core::ExperimentOptions
sweepOptions()
{
    core::ExperimentOptions opts;
    opts.model = testutil::tinyRnn();
    opts.train_model = testutil::tinyRnn();
    opts.train_batch = 16;
    opts.warmup_requests = 30;
    opts.measure_requests = 300;
    opts.seed = 17;
    // The router routes the whole horizon; runs here finish in a
    // couple of simulated milliseconds, so 20 ms is ample and keeps
    // the candidate streams small.
    opts.max_sim_s = 0.02;
    return opts;
}

/**
 * Replay the candidate recipe RequestDispatcher draws for service
 * @p stream when running stochastically: Rng(seed * 7919 + stream + 1),
 * exponential waits at @p rate_per_cycle, `Tick(wait) + 1` increments,
 * one candidate past @p max_ticks; nothing when the rate is <= 0. This
 * is the recipe ArrivalStream implements; the test keeps its own copy
 * so a regression in the one generator cannot hide.
 */
std::vector<Tick>
replayCandidates(std::uint64_t seed, double rate_per_cycle, Tick max_ticks,
                 std::uint64_t stream)
{
    std::vector<Tick> out;
    if (rate_per_cycle <= 0.0)
        return out;
    Rng rng(seed * 7919 + stream + 1);
    Tick t = 0;
    while (true) {
        double wait = rng.exponential(rate_per_cycle);
        t += static_cast<Tick>(wait) + 1;
        out.push_back(t);
        if (t > max_ticks)
            break;
    }
    return out;
}

sim::SimResult
runSingle(const sim::RunSpec &spec, const fault::FaultPlan &faults = {})
{
    auto cfg = testutil::smallConfig();
    workload::Compiler compiler(cfg);
    sim::Accelerator accel(cfg);
    accel.installInference(compiler.compileInference(testutil::tinyRnn()));
    accel.installTraining(
        compiler.compileTraining(testutil::tinyRnn(), 16));
    sim::RunSpec s = spec;
    s.faults = faults;
    return accel.run(s);
}

// ---------------------------------------------------------------------
// The one arrival generator against the longhand recipe, for the
// cluster's stream 0 and the dispatcher's per-service streams 1 and 2.

TEST(ArrivalStreamReference, MatchesTheRecipeBitForBit)
{
    const Tick horizon = 200000;
    std::vector<std::vector<Tick>> drawn_by_stream;
    for (std::uint64_t stream : {0u, 1u, 2u}) {
        for (double rate : {0.0, -1e-3, 2e-3}) {
            for (std::uint64_t seed : {1u, 17u}) {
                ArrivalStream arrivals(rate, seed, stream, horizon);
                std::vector<Tick> drawn;
                for (Tick t = 0; arrivals.next(t);)
                    drawn.push_back(t);
                EXPECT_EQ(drawn,
                          replayCandidates(seed, rate, horizon, stream))
                    << "stream " << stream << " rate " << rate
                    << " seed " << seed;
                if (rate <= 0.0) {
                    EXPECT_TRUE(drawn.empty()) << "stream " << stream;
                    continue;
                }
                // The one-past-the-horizon candidate is included and
                // ends the stream.
                ASSERT_GE(drawn.size(), 2u);
                EXPECT_GT(drawn.back(), horizon);
                EXPECT_LE(drawn[drawn.size() - 2], horizon);
                if (seed == 1)
                    drawn_by_stream.push_back(drawn);
            }
        }
    }
    // Each stream index seeds its own sequence.
    ASSERT_EQ(drawn_by_stream.size(), 3u);
    EXPECT_NE(drawn_by_stream[0], drawn_by_stream[1]);
    EXPECT_NE(drawn_by_stream[1], drawn_by_stream[2]);
}

// ---------------------------------------------------------------------
// The lemma: feeding a run the exact candidate ticks its stochastic
// twin would have drawn reproduces that twin byte for byte.

TEST(ClusterLemma, TickTraceReplaysStochasticRun)
{
    auto cfg = testutil::smallConfig();
    sim::RunSpec spec;
    spec.warmup_requests = 30;
    spec.measure_requests = 400;
    spec.max_sim_s = 0.02;
    spec.seed = 17;
    {
        workload::Compiler compiler(cfg);
        sim::Accelerator probe(cfg);
        probe.installInference(
            compiler.compileInference(testutil::tinyRnn()));
        spec.arrival_rate_per_s = 0.4 * probe.maxRequestRate();
    }

    sim::SimResult stochastic = runSingle(spec);

    sim::RunSpec traced = spec;
    traced.arrival_trace_ticks = replayCandidates(
        spec.seed, spec.arrival_rate_per_s / cfg.frequency_hz,
        units::secondsToCycles(spec.max_sim_s, cfg.frequency_hz), 0);
    sim::SimResult replayed = runSingle(traced);

    EXPECT_EQ(testutil::digestOf(replayed),
              testutil::digestOf(stochastic));
    EXPECT_EQ(replayed.admitted_requests, stochastic.admitted_requests);
    EXPECT_EQ(replayed.retired_requests, stochastic.retired_requests);
    EXPECT_EQ(replayed.inflight_requests, stochastic.inflight_requests);
}

TEST(ClusterLemma, TickTraceReplaysBurstyRun)
{
    auto cfg = testutil::smallConfig();
    sim::RunSpec spec;
    spec.warmup_requests = 30;
    spec.measure_requests = 400;
    spec.max_sim_s = 0.02;
    spec.seed = 23;
    spec.arrival_process = sim::ArrivalProcess::Bursty;
    {
        workload::Compiler compiler(cfg);
        sim::Accelerator probe(cfg);
        probe.installInference(
            compiler.compileInference(testutil::tinyRnn()));
        spec.arrival_rate_per_s = 0.4 * probe.maxRequestRate();
    }

    sim::SimResult stochastic = runSingle(spec);

    // Bursty candidates are drawn at the peak (burst_factor x mean)
    // rate; the on/off thinning happens at arrival and applies to
    // trace-fed candidates identically.
    sim::RunSpec traced = spec;
    traced.arrival_trace_ticks = replayCandidates(
        spec.seed,
        spec.arrival_rate_per_s * spec.burst_factor / cfg.frequency_hz,
        units::secondsToCycles(spec.max_sim_s, cfg.frequency_hz), 0);
    sim::SimResult replayed = runSingle(traced);

    EXPECT_EQ(testutil::digestOf(replayed),
              testutil::digestOf(stochastic));
}

TEST(ClusterLemma, TickTraceReplaysFaultPlanRun)
{
    auto cfg = testutil::smallConfig();
    sim::RunSpec spec;
    spec.warmup_requests = 30;
    spec.measure_requests = 400;
    spec.max_sim_s = 0.02;
    spec.seed = 17;
    {
        workload::Compiler compiler(cfg);
        sim::Accelerator probe(cfg);
        probe.installInference(
            compiler.compileInference(testutil::tinyRnn()));
        spec.arrival_rate_per_s = 0.4 * probe.maxRequestRate();
    }

    sim::SimResult stochastic = runSingle(spec, testutil::densePlan());

    sim::RunSpec traced = spec;
    traced.arrival_trace_ticks = replayCandidates(
        spec.seed, spec.arrival_rate_per_s / cfg.frequency_hz,
        units::secondsToCycles(spec.max_sim_s, cfg.frequency_hz), 0);
    sim::SimResult replayed = runSingle(traced, testutil::densePlan());

    EXPECT_EQ(testutil::digestOf(replayed),
              testutil::digestOf(stochastic));
}

// ---------------------------------------------------------------------
// 1-replica cluster == single accelerator, under every policy.

TEST(ClusterDifferential, OneReplicaMatchesSingleAccelerator)
{
    auto cfg = testutil::smallConfig();
    auto opts = sweepOptions();
    auto compiled = core::compileWorkload(cfg, opts);

    for (double load : {0.4, 0.85}) {
        core::LoadPointResult single =
            core::runAtLoad(cfg, load, opts, compiled);
        for (auto policy : cluster::allRoutingPolicies()) {
            cluster::ClusterSpec cspec;
            cspec.replicas = 1;
            cspec.policy = policy;
            cluster::Cluster fleet(cfg, cspec);
            cluster::ClusterPointResult res =
                fleet.run(load, opts, compiled);

            ASSERT_EQ(res.per_replica.size(), 1u);
            EXPECT_EQ(testutil::digestOf(res.per_replica[0].sim),
                      testutil::digestOf(single.sim))
                << "policy " << cluster::routingPolicyName(policy)
                << " load " << load;
            // The merged percentiles are the single replica's samples,
            // so the derived seconds match bitwise, not approximately.
            EXPECT_EQ(res.mean_latency_s, single.sim.mean_latency_s);
            EXPECT_EQ(res.p50_latency_s, single.sim.p50_latency_s);
            EXPECT_EQ(res.p99_latency_s, single.sim.p99_latency_s);
            EXPECT_EQ(res.max_latency_s, single.sim.max_latency_s);
            EXPECT_EQ(res.completed_requests,
                      single.sim.completed_requests);
            EXPECT_TRUE(res.per_replica[0].training);
        }
    }
}

TEST(ClusterDifferential, OneReplicaMatchesUnderActiveFaultPlan)
{
    auto cfg = testutil::smallConfig();
    auto opts = sweepOptions();
    opts.fault_plan = testutil::densePlan();
    auto compiled = core::compileWorkload(cfg, opts);

    core::LoadPointResult single =
        core::runAtLoad(cfg, 0.4, opts, compiled);
    for (auto policy : cluster::allRoutingPolicies()) {
        cluster::ClusterSpec cspec;
        cspec.replicas = 1;
        cspec.policy = policy;
        cluster::Cluster fleet(cfg, cspec);
        cluster::ClusterPointResult res = fleet.run(0.4, opts, compiled);
        ASSERT_EQ(res.per_replica.size(), 1u);
        EXPECT_EQ(testutil::digestOf(res.per_replica[0].sim),
                  testutil::digestOf(single.sim))
            << "policy " << cluster::routingPolicyName(policy);
    }
}

TEST(ClusterDifferential, OneReplicaMatchesTrainingOnly)
{
    auto cfg = testutil::smallConfig();
    auto opts = sweepOptions();
    auto compiled = core::compileWorkload(cfg, opts);

    core::LoadPointResult single =
        core::runAtLoad(cfg, 0.0, opts, compiled);
    cluster::Cluster fleet(cfg, {});
    cluster::ClusterPointResult res = fleet.run(0.0, opts, compiled);
    ASSERT_EQ(res.per_replica.size(), 1u);
    EXPECT_EQ(res.generated_candidates, 0u);
    EXPECT_EQ(testutil::digestOf(res.per_replica[0].sim),
              testutil::digestOf(single.sim));
}

// ---------------------------------------------------------------------
// jobs identity: the replica fan-out is byte-identical to the serial
// loop, for every policy, with faults and outages in play.

TEST(ClusterDifferential, JobsCountDoesNotChangeClusterPoint)
{
    auto cfg = testutil::smallConfig();
    auto opts_serial = sweepOptions();
    auto opts_parallel = sweepOptions();
    opts_parallel.jobs = 4;
    auto compiled = core::compileWorkload(cfg, opts_serial);

    for (auto policy : cluster::allRoutingPolicies()) {
        cluster::ClusterSpec cspec;
        cspec.replicas = 4;
        cspec.policy = policy;
        cspec.train_replicas = 2;
        cluster::Cluster fleet(cfg, cspec);
        EXPECT_EQ(
            testutil::digestOf(fleet.run(0.7, opts_serial, compiled)),
            testutil::digestOf(fleet.run(0.7, opts_parallel, compiled)))
            << "policy " << cluster::routingPolicyName(policy);
    }
}

TEST(ClusterDifferential, JobsCountDoesNotChangeFaultyOutageSweep)
{
    auto cfg = testutil::smallConfig();
    auto opts_serial = sweepOptions();
    opts_serial.fault_plan = testutil::densePlan();
    auto opts_parallel = opts_serial;
    opts_parallel.jobs = 4;

    cluster::ClusterSpec cspec;
    cspec.replicas = 3;
    cspec.policy = cluster::RoutingPolicy::JoinShortestQueue;
    cspec.outages.push_back({1, 0.001, 0.004});

    const std::vector<double> loads = {0.25, 0.55, 0.85};
    EXPECT_EQ(testutil::digestOf(
                  core::runClusterSweep(cfg, cspec, loads, opts_serial)),
              testutil::digestOf(core::runClusterSweep(cfg, cspec, loads,
                                                       opts_parallel)));
}

// ---------------------------------------------------------------------
// The golden single-chip digests survive the SimResult additions.

TEST(ClusterDifferential, GoldenDigestsUnchanged)
{
    EXPECT_EQ(testutil::digestOf(testutil::runScenario(
                  sim::SchedPolicy::Priority, {})),
              testutil::kGoldenFaultFreePriority);
    EXPECT_EQ(testutil::digestOf(testutil::runScenario(
                  sim::SchedPolicy::Priority, testutil::densePlan())),
              testutil::kGoldenActiveFaultPlan);
}

} // namespace
} // namespace equinox
