/**
 * @file
 * The composed routing pipeline: the resilience ControlPlane as a
 * stage over a sharded, autoscaled FleetRouter.
 *
 *  - a 1024-replica, 32-shard fleet with admission, retries, hedging,
 *    breakers and the autoscaler under flash_crowd_outage chaos keeps
 *    the router-side conservation laws, and is byte-identical at
 *    jobs=1 and jobs=4,
 *  - a shard whose replicas are all vetoed by the health veto is
 *    skipped at the shard tier, not picked and then shed,
 *  - hedge alternates stay inside the primary's shard, and the veto
 *    composes with the autoscaler's routability.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "cluster/cluster.hh"
#include "cluster/fleet.hh"
#include "cluster_digest.hh"
#include "core/experiment.hh"
#include "fault/chaos_plan.hh"

namespace equinox
{
namespace
{

constexpr std::size_t kReplicas = 1024;
constexpr std::size_t kShards = 32;
constexpr double kHorizonS = 0.004;

/**
 * A model whose service time (~4k cycles) keeps 1024 replicas at load
 * 0.7 well under the candidate stream's one-per-tick ceiling.
 */
workload::DnnModel
fleetModel()
{
    workload::DnnModel model;
    model.name = "fleet_rnn";
    model.kind = workload::DnnModel::Kind::Rnn;
    model.rnn.hidden = 256;
    model.rnn.steps = 8;
    model.rnn.gate_groups = {2};
    model.rnn.simd_passes = 4.0;
    return model;
}

core::ExperimentOptions
fleetOptions(std::size_t jobs)
{
    core::ExperimentOptions opts;
    opts.model = fleetModel();
    opts.train_model = fleetModel();
    opts.train_batch = 16;
    opts.warmup_requests = 2 * kReplicas;
    // The chaos windows sit mid-horizon, so the measured window spans
    // the whole run instead of closing at a request count.
    opts.measure_requests = 1u << 30;
    opts.min_measure_s = kHorizonS;
    opts.seed = 29;
    opts.max_sim_s = kHorizonS;
    opts.jobs = jobs;
    return opts;
}

/** Every control-plane mechanism, sized for the 4 ms horizon. */
cluster::ResilienceSpec
fullControlPlane()
{
    cluster::ResilienceSpec rs;
    rs.admission.policy = cluster::AdmissionPolicy::PriorityShed;
    rs.admission.background_fraction = 0.3;
    rs.admission.background_watermark = 2.0;
    rs.admission.inference_watermark = 1e6;
    rs.admission.deadline_cycles = 100000; // 1 ms at 100 MHz
    rs.retry.enabled = true;
    rs.retry.max_attempts = 6;
    rs.retry.max_budget = 65536.0;
    rs.retry.budget_ratio = 0.2;
    // 0.1 ms doubling backoff: the schedule spans the scenario's
    // 0.24 ms fleet blackout within max_attempts.
    rs.retry.base_backoff_cycles = 10000;
    rs.retry.backoff_multiplier = 2.0;
    rs.retry.jitter_frac = 0.25;
    rs.hedge.enabled = true;
    rs.hedge.latency_factor = 1.0;
    rs.hedge.window = 256;
    rs.hedge.min_samples = 64;
    rs.hedge.max_hedge_fraction = 0.01;
    // Probes every 20 us trip a breaker well inside the blackout.
    rs.breaker.enabled = true;
    rs.breaker.trip_failures = 4;
    rs.breaker.probe_interval_cycles = 2000;
    rs.breaker.cooldown_cycles = 10000;
    rs.breaker.halfopen_probes = 2;
    rs.shed_training_under_overload = true;
    rs.training_shed_backlog = 4.0;
    return rs;
}

cluster::ClusterSpec
composedSpec()
{
    cluster::ClusterSpec spec;
    spec.replicas = kReplicas;
    spec.policy = cluster::RoutingPolicy::JoinShortestQueue;
    spec.train_replicas = kReplicas / 4;
    spec.fleet.shards = kShards;
    spec.fleet.shard_policy = cluster::RoutingPolicy::JoinShortestQueue;
    cluster::AutoscalerSpec &as = spec.fleet.autoscaler;
    as.enabled = true;
    as.min_replicas = kReplicas / 4;
    as.initial_replicas = kReplicas / 2;
    as.target_p99_s = 2e-4;
    as.decision_interval_s = 2e-4;
    as.cooldown_s = 4e-4;
    as.warmup_s = 1e-4;
    as.min_samples = 64;
    spec.resilience = fullControlPlane();
    spec.chaos = fault::chaosScenario("flash_crowd_outage", kHorizonS, 3);
    return spec;
}

cluster::ClusterPointResult
runComposed(std::size_t jobs)
{
    auto cfg = testutil::smallConfig();
    auto opts = fleetOptions(jobs);
    return cluster::Cluster(cfg, composedSpec())
        .run(0.7, opts, core::compileWorkload(cfg, opts));
}

TEST(FleetResilience, ComposedPipelineConservesAndIsJobsInvariant)
{
    auto serial = runComposed(1);
    auto fanout = runComposed(4);
    EXPECT_EQ(testutil::digestOf(serial), testutil::digestOf(fanout));

    const cluster::ClusterPointResult &r = serial;
    const cluster::ResilienceStats &s = r.resilience;
    // Every tier ran.
    EXPECT_TRUE(r.control_plane);
    EXPECT_TRUE(r.autoscaled);
    EXPECT_EQ(r.shards, kShards);
    ASSERT_EQ(r.per_shard.size(), kShards);
    EXPECT_GT(r.autoscaler.scale_ups, 0u);
    EXPECT_GT(s.breaker_opens, 0u) << "the blackout trips breakers";
    EXPECT_GT(s.retry_recovered, 0u) << "retries ride out the blackout";
    EXPECT_GT(s.hedges_issued, 0u);
    EXPECT_GT(r.completed_requests, 0u);

    // Router-side conservation behind the control plane.
    std::uint64_t assigned = 0;
    for (const auto &rep : r.per_replica)
        assigned += rep.assigned_candidates;
    EXPECT_EQ(r.generated_candidates, s.dispatched + s.totalShed());
    EXPECT_EQ(r.router_shed, s.totalShed());
    EXPECT_EQ(assigned, s.dispatched + s.hedges_issued);
    EXPECT_EQ(s.admission.admitted,
              s.dispatched + s.retry_shed + s.outage_shed);
    // The shard slices partition the replica assignments.
    std::uint64_t shard_assigned = 0;
    for (const auto &sh : r.per_shard)
        shard_assigned += sh.assigned_candidates;
    EXPECT_EQ(shard_assigned, assigned);
    // Replica-side conservation.
    for (const auto &rep : r.per_replica) {
        EXPECT_EQ(rep.sim.admitted_requests,
                  rep.sim.retired_requests + rep.sim.inflight_requests)
            << "replica " << rep.replica;
    }
}

cluster::FleetRouter::Config
shardedConfig(cluster::RoutingPolicy shard_policy)
{
    cluster::FleetRouter::Config fc;
    fc.replica_policy = cluster::RoutingPolicy::JoinShortestQueue;
    fc.shard_policy = shard_policy;
    fc.replicas = 8;
    fc.shards = 2;
    fc.service_rate_per_cycle = 1e-3;
    fc.latency_window = 16;
    return fc;
}

TEST(FleetResilience, FullyVetoedShardIsSkippedNotShed)
{
    // Shard 0 (replicas 0-3) has no outage but every replica vetoed:
    // the shard tier must route around it like a dark shard. Without
    // the veto in the shard-availability check, JSQ's tie goes to
    // shard 0 and round-robin's cursor lands there, and the inner
    // pick sheds a candidate shard 1 could have served.
    for (auto shard_policy : cluster::allRoutingPolicies()) {
        cluster::FleetRouter fr(shardedConfig(shard_policy), {});
        fr.setHealthVeto([](std::size_t r, Tick) { return r >= 4; });
        for (Tick t = 1; t <= 64; ++t) {
            std::size_t g = fr.pick(t * 100);
            ASSERT_NE(g, cluster::kNoReplica)
                << cluster::routingPolicyName(shard_policy);
            EXPECT_GE(g, 4u) << cluster::routingPolicyName(shard_policy);
        }
        EXPECT_EQ(fr.shedCount(), 0u);
        EXPECT_GT(fr.shardRerouted(), 0u);
        EXPECT_EQ(fr.reroutedCount(), fr.shardRerouted());
    }
}

TEST(FleetResilience, VetoComposesWithAutoscalerRoutability)
{
    // Four of eight replicas provisioned (shard 0); the veto removes
    // replica 0 and 1, so picks land on 2 and 3 only -- never on a
    // vetoed replica, never on an unprovisioned one.
    cluster::FleetRouter::Config fc =
        shardedConfig(cluster::RoutingPolicy::RoundRobin);
    fc.replica_policy = cluster::RoutingPolicy::RoundRobin;
    fc.autoscale = true;
    fc.min_active = 4;
    fc.max_active = 4;
    fc.target_p99_cycles = 1e9;
    fc.decision_interval = 1000000;
    cluster::FleetRouter fr(fc, {});
    fr.setHealthVeto([](std::size_t r, Tick) { return r >= 2; });
    for (Tick t = 1; t <= 32; ++t) {
        std::size_t g = fr.pick(t);
        EXPECT_TRUE(g == 2 || g == 3) << "picked " << g;
    }
    EXPECT_EQ(fr.shedCount(), 0u);
    // Veto everything provisioned: now the candidate is shed.
    fr.setHealthVeto([](std::size_t, Tick) { return false; });
    EXPECT_EQ(fr.pick(100), cluster::kNoReplica);
    EXPECT_EQ(fr.shedCount(), 1u);
}

TEST(FleetResilience, HedgeAlternateStaysInThePrimarysShard)
{
    cluster::FleetRouter fr(
        shardedConfig(cluster::RoutingPolicy::JoinShortestQueue), {});
    // Load shard 1 heavily so a fleet-wide alternate would be in
    // shard 0; the alternate for a shard-1 primary must still be in
    // shard 1.
    for (std::size_t r = 0; r < 4; ++r)
        fr.assignTo(4 + r, 10);
    for (std::size_t primary = 4; primary < 8; ++primary) {
        std::size_t alt = fr.pickAlternate(10, primary);
        ASSERT_NE(alt, cluster::kNoReplica);
        EXPECT_NE(alt, primary);
        EXPECT_EQ(fr.shardOf(alt), fr.shardOf(primary));
    }
    // Shard 0's alternates stay in shard 0.
    std::size_t alt = fr.pickAlternate(10, 1);
    EXPECT_EQ(fr.shardOf(alt), 0u);
    EXPECT_NE(alt, 1u);
}

} // namespace
} // namespace equinox
