/**
 * @file
 * Differential tests pinning the fleet tier to the flat cluster layer
 * it is built from:
 *
 *  - a 1-shard FleetRouter is byte-identical to a flat Router::pick
 *    loop under every (replica policy x shard policy) pair, including
 *    outage windows, a full blackout (the shed path must advance the
 *    same round-robin cursor), and surge windows,
 *  - a spec with fleet.shards = 1 runs byte-identically to a flat spec
 *    (both route through one shard; only the first reports the fleet
 *    fields) under chaos plans, traffic mixes, and training placement,
 *  - a pinned autoscaler (min == max == fleet size) routes exactly
 *    like an autoscaler-disabled fleet,
 *  - replicas >> workers: the strided fan-out is byte-identical to
 *    serial (the runClusterSweep one-replica-per-worker fix),
 *  - ReplicaEstimator::windowP99 is bitwise LatencyTracker::percentile
 *    over the same window (the shared exact-rank kernel), and the
 *    +inf / exact-rank guard holds (the PR4 NaN bug class).
 */

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

#include <gtest/gtest.h>

#include "cluster/cluster.hh"
#include "cluster/fleet.hh"
#include "cluster/router.hh"
#include "cluster/sweep.hh"
#include "cluster_digest.hh"
#include "flat_route.hh"
#include "common/random.hh"
#include "core/experiment.hh"
#include "fault/chaos_plan.hh"
#include "fault/traffic_mix.hh"
#include "stats/histogram.hh"

namespace equinox
{
namespace
{

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
    opts.max_sim_s = 0.02;
    return opts;
}

/** One-shard FleetRouter::Config over the flat router's knobs. */
cluster::FleetRouter::Config
oneShardConfig(cluster::RoutingPolicy policy,
               cluster::RoutingPolicy shard_policy, std::size_t replicas,
               double mu, std::size_t window)
{
    cluster::FleetRouter::Config fc;
    fc.replica_policy = policy;
    fc.shard_policy = shard_policy;
    fc.replicas = replicas;
    fc.shards = 1;
    fc.service_rate_per_cycle = mu;
    fc.latency_window = window;
    return fc;
}

/** Every behavioural field of two cluster points, compared bitwise
 *  (the fleet-tier reporting fields are intentionally excluded: only
 *  a spec that configures the fleet tier fills them). */
void
expectCoreEqual(const cluster::ClusterPointResult &a,
                const cluster::ClusterPointResult &b)
{
    EXPECT_EQ(a.generated_candidates, b.generated_candidates);
    EXPECT_EQ(a.router_shed, b.router_shed);
    EXPECT_EQ(a.rerouted, b.rerouted);
    EXPECT_EQ(a.completed_requests, b.completed_requests);
    EXPECT_EQ(a.training_iterations, b.training_iterations);
    EXPECT_EQ(a.committed_training_iterations,
              b.committed_training_iterations);
    EXPECT_EQ(a.aggregate_inference_ops, b.aggregate_inference_ops);
    EXPECT_EQ(a.aggregate_training_ops, b.aggregate_training_ops);
    EXPECT_EQ(a.merged_latency_cycles.count(),
              b.merged_latency_cycles.count());
    EXPECT_EQ(a.merged_latency_cycles.mean(),
              b.merged_latency_cycles.mean());
    EXPECT_EQ(a.mean_latency_s, b.mean_latency_s);
    EXPECT_EQ(a.p50_latency_s, b.p50_latency_s);
    EXPECT_EQ(a.p99_latency_s, b.p99_latency_s);
    EXPECT_EQ(a.max_latency_s, b.max_latency_s);
    EXPECT_EQ(a.admitted_requests, b.admitted_requests);
    EXPECT_EQ(a.retired_requests, b.retired_requests);
    EXPECT_EQ(a.inflight_requests, b.inflight_requests);
    EXPECT_EQ(a.shed_requests, b.shed_requests);
    EXPECT_EQ(a.faults.totalFaults(), b.faults.totalFaults());
    EXPECT_EQ(a.faults.downtime_cycles, b.faults.downtime_cycles);
    EXPECT_EQ(a.outage_cycles, b.outage_cycles);
    EXPECT_EQ(a.availability, b.availability);
    EXPECT_EQ(a.request_availability, b.request_availability);
    EXPECT_EQ(a.goodput_rps, b.goodput_rps);
    ASSERT_EQ(a.per_replica.size(), b.per_replica.size());
    for (std::size_t r = 0; r < a.per_replica.size(); ++r) {
        EXPECT_EQ(a.per_replica[r].assigned_candidates,
                  b.per_replica[r].assigned_candidates);
        EXPECT_EQ(a.per_replica[r].training, b.per_replica[r].training);
        EXPECT_EQ(testutil::digestOf(a.per_replica[r].sim),
                  testutil::digestOf(b.per_replica[r].sim))
            << "replica " << r << " sim digest diverged";
    }
}

// ---------------------------------------------------------------------
// 1-shard FleetRouter == flat Router, every policy pair, with outages
// (including a full blackout) and surge windows.

TEST(FleetDifferential, OneShardRouterMatchesFlatEveryPolicy)
{
    const std::size_t n = 6;
    const double mu = 2.0e-4;
    const std::size_t window = 16;
    const Tick horizon = 400000;

    // Per-replica outages, plus a window where EVERY replica is dark:
    // the flat router sheds there while still advancing its rotation
    // cursor, and the hierarchy must do exactly the same.
    std::vector<cluster::RouterOutage> outages;
    outages.push_back({1, 10000, 90000});
    outages.push_back({4, 150000, 230000});
    for (std::size_t r = 0; r < n; ++r)
        outages.push_back({r, 250000, 280000});

    std::vector<cluster::RouterSurge> surges = {
        {120000, 200000, 3.0}, {300000, 340000, 2.0}};

    for (auto policy : cluster::allRoutingPolicies()) {
        for (auto shard_policy : cluster::allRoutingPolicies()) {
            cluster::Router flat(policy, n, mu, window, outages);
            cluster::RouterResult a =
                testutil::routeFlat(flat, 6.0e-4, 99, horizon, surges);

            cluster::FleetRouter fleet(
                oneShardConfig(policy, shard_policy, n, mu, window),
                outages);
            cluster::RouterResult b =
                fleet.route(6.0e-4, 99, horizon, surges);

            EXPECT_EQ(a.generated, b.generated);
            EXPECT_EQ(a.traces, b.traces);
            EXPECT_EQ(a.assigned, b.assigned);
            EXPECT_EQ(a.shed, b.shed);
            EXPECT_EQ(a.rerouted, b.rerouted);
            EXPECT_EQ(fleet.shardRerouted(), 0u);
        }
    }
}

// ---------------------------------------------------------------------
// 1-shard fleet Cluster == flat Cluster, under chaos, a traffic mix,
// and restricted training placement -- the whole stack, byte for byte.

TEST(FleetDifferential, OneShardClusterMatchesFlatUnderChaos)
{
    auto cfg = testutil::smallConfig();
    core::ExperimentOptions opts = sweepOptions();

    cluster::ClusterSpec flat;
    flat.replicas = 5;
    flat.policy = cluster::RoutingPolicy::JoinShortestQueue;
    flat.train_replicas = 2;
    flat.chaos =
        fault::chaosScenario("flash_crowd_outage", opts.max_sim_s, 7);

    cluster::ClusterSpec sharded = flat;
    sharded.fleet.shards = 1;
    sharded.fleet.shard_policy = cluster::RoutingPolicy::RoundRobin;

    cluster::ClusterPointResult a =
        cluster::Cluster(cfg, flat).run(0.7, opts);
    cluster::ClusterPointResult b =
        cluster::Cluster(cfg, sharded).run(0.7, opts);

    EXPECT_EQ(a.shards, 0u);
    EXPECT_EQ(b.shards, 1u);
    ASSERT_EQ(b.per_shard.size(), 1u);
    EXPECT_EQ(b.per_shard[0].replicas, 5u);
    expectCoreEqual(a, b);

    // The single shard's merge IS the fleet merge, bitwise.
    EXPECT_EQ(b.per_shard[0].merged_latency_cycles.count(),
              b.merged_latency_cycles.count());
    EXPECT_EQ(b.per_shard[0].merged_latency_cycles.percentile(0.99),
              b.merged_latency_cycles.percentile(0.99));
}

TEST(FleetDifferential, OneShardClusterMatchesFlatUnderTrafficMix)
{
    auto cfg = testutil::smallConfig();
    core::ExperimentOptions opts = sweepOptions();

    // A traffic mix alone keeps the flat Router (shards = 0); adding
    // a 1-shard hierarchy on top must not change a single byte.
    cluster::ClusterSpec flat;
    flat.replicas = 4;
    flat.policy = cluster::RoutingPolicy::LatencyAware;
    flat.fleet.traffic =
        fault::trafficScenario("multi_tenant", opts.max_sim_s);

    cluster::ClusterSpec sharded = flat;
    sharded.fleet.shards = 1;

    cluster::ClusterPointResult a =
        cluster::Cluster(cfg, flat).run(0.6, opts);
    cluster::ClusterPointResult b =
        cluster::Cluster(cfg, sharded).run(0.6, opts);
    EXPECT_EQ(a.shards, 0u);
    EXPECT_EQ(b.shards, 1u);
    expectCoreEqual(a, b);
}

// ---------------------------------------------------------------------
// An autoscaler pinned to the fleet size (min == max == initial == n)
// can never act, so it must route exactly like a disabled one.

TEST(FleetDifferential, PinnedAutoscalerMatchesDisabled)
{
    auto cfg = testutil::smallConfig();
    core::ExperimentOptions opts = sweepOptions();

    cluster::ClusterSpec base;
    base.replicas = 6;
    base.policy = cluster::RoutingPolicy::RoundRobin;
    base.fleet.shards = 3;
    base.fleet.shard_policy = cluster::RoutingPolicy::JoinShortestQueue;
    base.outages.push_back({2, 0.002, 0.006});

    cluster::ClusterSpec pinned = base;
    pinned.fleet.autoscaler.enabled = true;
    pinned.fleet.autoscaler.min_replicas = 6;
    pinned.fleet.autoscaler.max_replicas = 6;
    pinned.fleet.autoscaler.initial_replicas = 6;
    pinned.fleet.autoscaler.target_p99_s = 0.001;

    cluster::ClusterPointResult a =
        cluster::Cluster(cfg, base).run(0.8, opts);
    cluster::ClusterPointResult b =
        cluster::Cluster(cfg, pinned).run(0.8, opts);

    EXPECT_FALSE(a.autoscaled);
    EXPECT_TRUE(b.autoscaled);
    EXPECT_EQ(b.autoscaler.scale_ups, 0u);
    EXPECT_EQ(b.autoscaler.scale_downs, 0u);
    EXPECT_EQ(b.autoscaler.min_active, 6u);
    EXPECT_EQ(b.autoscaler.max_active, 6u);
    expectCoreEqual(a, b);
    ASSERT_EQ(a.per_shard.size(), b.per_shard.size());
    for (std::size_t s = 0; s < a.per_shard.size(); ++s) {
        EXPECT_EQ(a.per_shard[s].assigned_candidates,
                  b.per_shard[s].assigned_candidates);
        EXPECT_EQ(a.per_shard[s].merged_latency_cycles.count(),
                  b.per_shard[s].merged_latency_cycles.count());
    }
}

// ---------------------------------------------------------------------
// Replicas >> workers: the strided fan-out (one task per worker slot,
// indices round-robined) is byte-identical to serial. This is the
// regression test for runClusterSweep's one-replica-per-worker
// assumption.

TEST(FleetDifferential, ManyReplicasFewWorkersMatchesSerial)
{
    auto cfg = testutil::smallConfig();
    core::ExperimentOptions opts = sweepOptions();
    opts.measure_requests = 240;
    opts.max_sim_s = 0.01;

    cluster::ClusterSpec spec;
    spec.replicas = 24;
    spec.policy = cluster::RoutingPolicy::JoinShortestQueue;
    spec.fleet.shards = 4;
    spec.train_replicas = 3;

    cluster::Cluster fleet(cfg, spec);
    core::ExperimentOptions serial = opts;
    serial.jobs = 1;
    core::ExperimentOptions strided = opts;
    strided.jobs = 5; // 24 replicas round-robin over 5 workers

    std::uint64_t a = testutil::digestOf(fleet.run(0.6, serial));
    std::uint64_t b = testutil::digestOf(fleet.run(0.6, strided));
    EXPECT_EQ(a, b);
}

TEST(FleetDifferential, SweepJobsIdentityAtFleetScale)
{
    auto cfg = testutil::smallConfig();
    core::ExperimentOptions opts = sweepOptions();
    opts.measure_requests = 160;
    opts.max_sim_s = 0.008;

    cluster::ClusterSpec spec;
    spec.replicas = 18;
    spec.fleet.shards = 3;
    spec.fleet.autoscaler.enabled = true;
    spec.fleet.autoscaler.min_replicas = 6;
    spec.fleet.autoscaler.target_p99_s = 0.002;
    spec.fleet.traffic =
        fault::trafficScenario("flash_crowd", opts.max_sim_s);

    std::vector<double> loads = {0.4, 0.9};
    core::ExperimentOptions serial = opts;
    serial.jobs = 1;
    core::ExperimentOptions fanned = opts;
    fanned.jobs = 4;
    EXPECT_EQ(
        testutil::digestOf(core::runClusterSweep(cfg, spec, loads, serial)),
        testutil::digestOf(
            core::runClusterSweep(cfg, spec, loads, fanned)));
}

// ---------------------------------------------------------------------
// The shared exact-rank percentile kernel (the PR4 +inf/NaN bug class).

TEST(FleetDifferential, ExactPercentileSortedGuardsInfiniteNeighbours)
{
    const double inf = std::numeric_limits<double>::infinity();
    // Exact-rank query whose upper neighbour is +inf: the guard must
    // return the order statistic itself, never 0 * inf = NaN.
    std::vector<double> sorted = {1.0, 2.0, inf};
    double mid = stats::exactPercentileSorted(sorted, 0.5);
    EXPECT_EQ(mid, 2.0);
    EXPECT_FALSE(std::isnan(mid));
    EXPECT_EQ(stats::exactPercentileSorted(sorted, 1.0), inf);
    EXPECT_EQ(stats::exactPercentileSorted({7.5}, 0.99), 7.5);

    // Interpolated queries agree with LatencyTracker bitwise.
    stats::LatencyTracker tracker;
    std::vector<double> samples = {0.25, 4.0, 1.0, 9.5, 2.0, 3.25};
    for (double s : samples)
        tracker.record(s);
    std::vector<double> copy = samples;
    std::sort(copy.begin(), copy.end());
    for (double p : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
        EXPECT_EQ(stats::exactPercentileSorted(copy, p),
                  tracker.percentile(p));
    }
}

TEST(FleetDifferential, EstimatorWindowP99IsBitwiseTrackerPercentile)
{
    // Replay the estimator's fluid model arithmetic side by side and
    // pin windowP99 to LatencyTracker::percentile over the identical
    // window -- bitwise, across random assign/drain schedules.
    Rng rng(20260808);
    for (int trial = 0; trial < 20; ++trial) {
        double mu = rng.uniform(1e-5, 5e-4);
        std::size_t window = 1 + rng.uniformInt(1, 24);
        cluster::ReplicaEstimator est(mu, window);

        double backlog = 0.0;
        Tick last = 0;
        std::deque<double> recent;
        Tick t = 0;
        for (int i = 0; i < 200; ++i) {
            t += rng.uniformInt(0, 5000);
            est.assign(t);
            // The shadow model: drain, estimate, then enqueue -- the
            // exact operation order ReplicaEstimator::assign runs.
            double drained = static_cast<double>(t - last) * mu;
            backlog = backlog > drained ? backlog - drained : 0.0;
            last = t;
            recent.push_back((backlog + 1.0) / mu);
            if (recent.size() > window)
                recent.pop_front();
            backlog += 1.0;

            stats::LatencyTracker tracker;
            for (double s : recent)
                tracker.record(s);
            ASSERT_EQ(est.windowP99(), tracker.percentile(0.99))
                << "trial " << trial << " step " << i;
            ASSERT_EQ(est.lastAssignmentEstimateCycles(), recent.back());
        }
    }
}

} // namespace
} // namespace equinox
