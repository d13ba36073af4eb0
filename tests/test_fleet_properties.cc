/**
 * @file
 * Property tests for the fleet tier (hierarchical sharded routing,
 * SLO autoscaling, traffic mixes).
 *
 * The heart is two randomized sweeps:
 *
 *  - 44 seeded FleetRouter configurations drawn over replica count,
 *    shard count, both policy tiers, outages, surges and autoscaler
 *    knobs, checked against invariants that must hold for EVERY fleet:
 *    request conservation, strictly increasing per-replica traces,
 *    balanced contiguous shard partitioning, autoscaler bounds and
 *    cooldown hysteresis (no flapping inside the cooldown), ever-active
 *    consistency, and exact replay determinism,
 *
 *  - 12 full Cluster runs through the hierarchy, checking that shard
 *    accounting conserves requests (fleet == sum over shards == sum
 *    over replicas) and that per-shard latency merges reproduce the
 *    fleet-level percentiles bitwise (the exact-merge contract at one
 *    more level of hierarchy).
 *
 * Around them sit deterministic tests of autoscaler reaction to a
 * flash crowd, monotone aggregate throughput in replica count, the
 * traffic-mix factor algebra, and fleet spec validation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "cluster/cluster.hh"
#include "cluster/fleet.hh"
#include "cluster/router.hh"
#include "cluster_digest.hh"
#include "common/random.hh"
#include "core/experiment.hh"
#include "fault/traffic_mix.hh"

namespace equinox
{
namespace
{

core::ExperimentOptions
baseOptions()
{
    core::ExperimentOptions opts;
    opts.model = testutil::tinyRnn();
    opts.train_model = testutil::tinyRnn();
    opts.train_batch = 16;
    opts.warmup_requests = 30;
    opts.measure_requests = 200;
    opts.seed = 17;
    opts.max_sim_s = 0.01;
    return opts;
}

// ---------------------------------------------------------------------
// Randomized FleetRouter sweep: routing-layer invariants over 44
// seeded configurations (no simulation behind them, so this is cheap
// enough to also replay every config for determinism).

struct DrawnFleet
{
    cluster::FleetRouter::Config cfg;
    std::vector<cluster::RouterOutage> outages;
    std::vector<cluster::RouterSurge> surges;
    double rate_per_cycle = 0.0;
    std::uint64_t seed = 0;
    Tick horizon = 0;
};

DrawnFleet
drawFleet(Rng &meta, std::size_t index)
{
    DrawnFleet d;
    auto policies = cluster::allRoutingPolicies();
    d.cfg.replicas = 2 + meta.uniformInt(0, 46);
    d.cfg.shards =
        1 + meta.uniformInt(0, std::min<std::size_t>(
                                   d.cfg.replicas, 8) -
                                   1);
    d.cfg.replica_policy =
        policies[meta.uniformInt(0, policies.size() - 1)];
    d.cfg.shard_policy =
        policies[meta.uniformInt(0, policies.size() - 1)];
    d.cfg.service_rate_per_cycle = meta.uniform(5e-5, 5e-4);
    d.cfg.latency_window = 1 + meta.uniformInt(0, 31);

    d.horizon = 100000 + meta.uniformInt(0, 200000);
    // Aggregate rate from light to overload of the whole fleet.
    d.rate_per_cycle = meta.uniform(0.1, 1.2) *
                       d.cfg.service_rate_per_cycle *
                       static_cast<double>(d.cfg.replicas);
    d.seed = 1000 + index;

    if (meta.uniform() < 0.4) {
        std::size_t outages = 1 + meta.uniformInt(0, 2);
        for (std::size_t i = 0; i < outages; ++i) {
            Tick from = meta.uniformInt(0, d.horizon / 2);
            d.outages.push_back(
                {meta.uniformInt(0, d.cfg.replicas - 1), from,
                 from + 1 + meta.uniformInt(0, d.horizon / 4)});
        }
    }
    if (meta.uniform() < 0.35) {
        Tick from = meta.uniformInt(0, d.horizon / 2);
        d.surges.push_back({from,
                            from + 1 + meta.uniformInt(0, d.horizon / 3),
                            meta.uniform(1.5, 5.0)});
    }
    if (meta.uniform() < 0.5) {
        d.cfg.autoscale = true;
        d.cfg.min_active = 1 + meta.uniformInt(0, d.cfg.replicas / 2);
        d.cfg.max_active =
            d.cfg.min_active +
            meta.uniformInt(0, d.cfg.replicas - d.cfg.min_active);
        d.cfg.initial_active =
            d.cfg.min_active +
            meta.uniformInt(0, d.cfg.max_active - d.cfg.min_active);
        d.cfg.target_p99_cycles = meta.uniform(1e3, 1e6);
        d.cfg.decision_interval = 500 + meta.uniformInt(0, 4000);
        d.cfg.cooldown = meta.uniformInt(0, 3) * d.cfg.decision_interval;
        d.cfg.warmup = meta.uniformInt(0, 2000);
        d.cfg.estimate_window = 16 + meta.uniformInt(0, 240);
        d.cfg.min_samples = 1 + meta.uniformInt(0, 31);
    }
    return d;
}

TEST(FleetProperties, RandomFleetsUpholdRoutingInvariants)
{
    Rng meta(20260808);
    const int kConfigs = 44;
    for (int i = 0; i < kConfigs; ++i) {
        DrawnFleet d = drawFleet(meta, static_cast<std::size_t>(i));
        SCOPED_TRACE(::testing::Message()
                     << "fleet " << i << ": replicas " << d.cfg.replicas
                     << " shards " << d.cfg.shards << " autoscale "
                     << d.cfg.autoscale << " rate " << d.rate_per_cycle);

        cluster::FleetRouter fr(d.cfg, d.outages);
        cluster::RouterResult r =
            fr.route(d.rate_per_cycle, d.seed, d.horizon, d.surges);

        // Balanced contiguous partition: sizes differ by at most one,
        // bases tile [0, replicas), shardOf inverts the bases.
        ASSERT_EQ(fr.shardCount(), d.cfg.shards);
        std::size_t covered = 0;
        for (std::size_t s = 0; s < fr.shardCount(); ++s) {
            EXPECT_EQ(fr.shardBase(s), covered);
            std::size_t sz = fr.shardSize(s);
            EXPECT_GE(sz, d.cfg.replicas / d.cfg.shards);
            EXPECT_LE(sz, d.cfg.replicas / d.cfg.shards + 1);
            for (std::size_t k = 0; k < sz; ++k)
                EXPECT_EQ(fr.shardOf(covered + k), s);
            covered += sz;
        }
        EXPECT_EQ(covered, d.cfg.replicas);

        // Request conservation: every candidate assigned once or shed.
        std::uint64_t assigned = 0;
        ASSERT_EQ(r.traces.size(), d.cfg.replicas);
        ASSERT_EQ(r.assigned.size(), d.cfg.replicas);
        for (std::size_t rep = 0; rep < d.cfg.replicas; ++rep) {
            EXPECT_EQ(r.assigned[rep], r.traces[rep].size());
            assigned += r.assigned[rep];
            for (std::size_t k = 1; k < r.traces[rep].size(); ++k)
                ASSERT_LT(r.traces[rep][k - 1], r.traces[rep][k])
                    << "replica " << rep;
            // Routed work implies the replica was provisioned at some
            // point (trivially true without the autoscaler).
            if (r.assigned[rep] > 0) {
                EXPECT_TRUE(fr.everActive(rep)) << "replica " << rep;
            }
        }
        EXPECT_EQ(r.generated, assigned + r.shed);
        // Shard-level re-routes are a subset of all re-routes.
        EXPECT_LE(fr.shardRerouted(), r.rerouted);
        if (d.outages.empty() && !d.cfg.autoscale) {
            EXPECT_EQ(r.shed, 0u);
        }

        const cluster::AutoscalerStats &st = fr.autoscalerStats();
        if (d.cfg.autoscale) {
            std::size_t lo = d.cfg.min_active;
            std::size_t hi = d.cfg.max_active;
            // The provisioned envelope stays inside [min, max].
            EXPECT_GE(st.min_active, lo);
            EXPECT_LE(st.max_active, hi);
            EXPECT_GE(st.final_active, lo);
            EXPECT_LE(st.final_active, hi);
            EXPECT_EQ(st.scale_ups + st.scale_downs,
                      st.transitions.size());
            // Hysteresis: no flapping inside the cooldown. Every pair
            // of consecutive actions is at least a cooldown apart.
            for (std::size_t k = 0; k < st.transitions.size(); ++k) {
                EXPECT_GE(st.transitions[k].second, lo);
                EXPECT_LE(st.transitions[k].second, hi);
                if (k > 0) {
                    EXPECT_GE(st.transitions[k].first,
                              st.transitions[k - 1].first +
                                  d.cfg.cooldown)
                        << "actions " << k - 1 << " and " << k
                        << " flapped inside the cooldown";
                    EXPECT_NE(st.transitions[k].second,
                              st.transitions[k - 1].second)
                        << "action " << k << " changed nothing";
                }
            }
            // Integral accounting: over-provisioning is a fraction of
            // provisioned capacity.
            EXPECT_GE(st.active_replica_ticks, 0.0);
            EXPECT_LE(st.over_provisioned_ticks,
                      st.active_replica_ticks + 1e-9);
            EXPECT_GE(st.over_provision_frac, 0.0);
            EXPECT_LE(st.over_provision_frac, 1.0);
        } else {
            EXPECT_TRUE(st.transitions.empty());
            EXPECT_EQ(st.decisions, 0u);
        }

        // Exact replay: the whole routed stream is a pure function of
        // (config, outages, rate, seed, horizon, surges).
        cluster::FleetRouter fr2(d.cfg, d.outages);
        cluster::RouterResult r2 =
            fr2.route(d.rate_per_cycle, d.seed, d.horizon, d.surges);
        ASSERT_EQ(r.traces, r2.traces);
        EXPECT_EQ(r.shed, r2.shed);
        EXPECT_EQ(r.rerouted, r2.rerouted);
        EXPECT_EQ(fr.shardRerouted(), fr2.shardRerouted());
        EXPECT_EQ(fr.autoscalerStats().transitions,
                  fr2.autoscalerStats().transitions);
    }
}

// ---------------------------------------------------------------------
// Randomized Cluster-through-the-hierarchy sweep: shard accounting
// conserves requests and shard merges reproduce fleet percentiles
// bitwise.

TEST(FleetProperties, ClusterShardAccountingIsExact)
{
    auto cfg = testutil::smallConfig();
    Rng meta(20260809);
    const int kConfigs = 12;
    for (int i = 0; i < kConfigs; ++i) {
        core::ExperimentOptions opts = baseOptions();
        opts.seed = 300 + static_cast<std::uint64_t>(i);
        opts.jobs = 1 + meta.uniformInt(0, 3);

        cluster::ClusterSpec spec;
        static const std::size_t replica_choices[] = {4, 6, 8, 9, 12};
        spec.replicas = replica_choices[meta.uniformInt(0, 4)];
        auto policies = cluster::allRoutingPolicies();
        spec.policy = policies[meta.uniformInt(0, policies.size() - 1)];
        spec.fleet.shards =
            2 + meta.uniformInt(0, std::min<std::size_t>(
                                       spec.replicas / 2, 4) -
                                       1);
        spec.fleet.shard_policy =
            policies[meta.uniformInt(0, policies.size() - 1)];
        spec.train_replicas = meta.uniformInt(0, spec.replicas);
        if (meta.uniform() < 0.4) {
            spec.fleet.autoscaler.enabled = true;
            spec.fleet.autoscaler.min_replicas =
                1 + meta.uniformInt(0, spec.replicas / 2);
            spec.fleet.autoscaler.target_p99_s =
                meta.uniform(5e-5, 5e-3);
        }
        if (meta.uniform() < 0.4) {
            auto names = fault::trafficScenarioNames();
            spec.fleet.traffic = fault::trafficScenario(
                names[meta.uniformInt(0, names.size() - 1)],
                opts.max_sim_s);
        }
        double load = meta.uniform(0.2, 1.0);
        SCOPED_TRACE(::testing::Message()
                     << "config " << i << ": replicas " << spec.replicas
                     << " shards " << spec.fleet.shards << " load "
                     << load << " jobs " << opts.jobs << " autoscale "
                     << spec.fleet.autoscaler.enabled);

        cluster::ClusterPointResult res =
            cluster::Cluster(cfg, spec).run(load, opts);

        // Shape: one outcome per shard, contiguous tiling.
        ASSERT_EQ(res.shards, spec.fleet.shards);
        ASSERT_EQ(res.per_shard.size(), res.shards);
        std::size_t covered = 0;
        for (const auto &sh : res.per_shard) {
            EXPECT_EQ(sh.first_replica, covered);
            covered += sh.replicas;
        }
        EXPECT_EQ(covered, spec.replicas);

        // Conservation: fleet == sum over shards == sum over replicas,
        // on assignments, completions, latency samples and faults.
        std::uint64_t shard_assigned = 0, replica_assigned = 0;
        std::uint64_t shard_completed = 0;
        stats::LatencyTracker shard_concat;
        for (const auto &sh : res.per_shard) {
            shard_assigned += sh.assigned_candidates;
            shard_completed += sh.completed_requests;
            // The shard outcome aggregates exactly its member rows.
            std::uint64_t members_assigned = 0;
            std::uint64_t members_completed = 0;
            stats::LatencyTracker members;
            for (std::size_t k = 0; k < sh.replicas; ++k) {
                const auto &rep =
                    res.per_replica[sh.first_replica + k];
                members_assigned += rep.assigned_candidates;
                members_completed += rep.sim.completed_requests;
                for (double sample :
                     rep.sim.latency_cycles.rawSamples())
                    members.record(sample);
            }
            EXPECT_EQ(sh.assigned_candidates, members_assigned);
            EXPECT_EQ(sh.completed_requests, members_completed);
            ASSERT_EQ(sh.merged_latency_cycles.count(),
                      members.count());
            if (members.count() > 0) {
                for (double p : {0.0, 0.5, 0.99, 1.0})
                    EXPECT_EQ(sh.merged_latency_cycles.percentile(p),
                              members.percentile(p))
                        << "shard " << sh.shard << " p" << p;
            }
            for (double sample :
                 sh.merged_latency_cycles.rawSamples())
                shard_concat.record(sample);
        }
        for (const auto &rep : res.per_replica)
            replica_assigned += rep.assigned_candidates;
        EXPECT_EQ(shard_assigned, replica_assigned);
        EXPECT_EQ(res.generated_candidates,
                  replica_assigned + res.router_shed);
        EXPECT_EQ(shard_completed, res.completed_requests);

        // Bitwise shard-percentile merging: concatenating the shard
        // trackers in shard order reproduces the fleet-level merge
        // exactly -- count, every percentile, max and mean.
        ASSERT_EQ(shard_concat.count(),
                  res.merged_latency_cycles.count());
        if (shard_concat.count() > 0) {
            for (double p : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0})
                EXPECT_EQ(res.merged_latency_cycles.percentile(p),
                          shard_concat.percentile(p))
                    << "p" << p;
            EXPECT_EQ(res.merged_latency_cycles.max(),
                      shard_concat.max());
            EXPECT_DOUBLE_EQ(res.merged_latency_cycles.mean(),
                             shard_concat.mean());
        }

        // Autoscaler runs report their envelope; fixed fleets do not.
        EXPECT_EQ(res.autoscaled, spec.fleet.autoscaler.enabled);
        if (res.autoscaled) {
            EXPECT_GE(res.autoscaler.min_active,
                      spec.fleet.autoscaler.min_replicas);
            EXPECT_LE(res.autoscaler.max_active, spec.replicas);
        }
    }
}

// ---------------------------------------------------------------------
// Aggregate throughput is monotone in replica count: at a fixed load
// fraction, doubling the fleet never completes fewer requests.

TEST(FleetProperties, AggregateThroughputMonotoneInReplicaCount)
{
    auto cfg = testutil::smallConfig();
    core::ExperimentOptions opts = baseOptions();
    opts.measure_requests = 150;
    opts.max_sim_s = 0.008;

    std::uint64_t prev_completed = 0;
    double prev_ops = 0.0;
    for (std::size_t replicas : {2, 4, 8}) {
        cluster::ClusterSpec spec;
        spec.replicas = replicas;
        spec.fleet.shards = 2;
        cluster::ClusterPointResult res =
            cluster::Cluster(cfg, spec).run(0.6, opts);
        EXPECT_GE(res.completed_requests, prev_completed)
            << "fleet of " << replicas << " completed less";
        EXPECT_GE(res.aggregate_inference_ops, prev_ops)
            << "fleet of " << replicas << " slowed down";
        prev_completed = res.completed_requests;
        prev_ops = res.aggregate_inference_ops;
    }
}

// ---------------------------------------------------------------------
// Autoscaler reaction: a flash crowd forces scale-ups, the quiet tail
// scales back down, and the plan never leaves [min, max].

TEST(FleetProperties, AutoscalerTracksAFlashCrowd)
{
    cluster::FleetRouter::Config fc;
    fc.replicas = 16;
    fc.shards = 4;
    fc.service_rate_per_cycle = 1e-4;
    fc.autoscale = true;
    fc.min_active = 2;
    fc.max_active = 16;
    fc.initial_active = 2;
    // A huge latency target keeps the proportional term quiet; the
    // feed-forward capacity plan does the tracking.
    fc.target_p99_cycles = 1e9;
    fc.decision_interval = 2000;
    fc.cooldown = 4000;
    fc.warmup = 1000;
    fc.min_samples = 4;

    // Base load needs ~5 replicas; the 4x surge in the middle needs
    // the whole fleet.
    std::vector<cluster::RouterSurge> surges = {{80000, 160000, 4.0}};
    cluster::FleetRouter fr(fc, {});
    fr.route(4e-4, 99, 300000, surges);

    const cluster::AutoscalerStats &st = fr.autoscalerStats();
    EXPECT_GT(st.decisions, 0u);
    EXPECT_GE(st.scale_ups, 1u) << "the surge never scaled up";
    EXPECT_GE(st.scale_downs, 1u) << "the quiet tail never scaled down";
    EXPECT_GE(st.min_active, 2u);
    EXPECT_LE(st.max_active, 16u);
    EXPECT_GT(st.max_active, st.min_active);
    // The surge-era provisioning outgrew the steady-state need.
    EXPECT_GT(st.max_active, 5u);
    EXPECT_GT(st.needed_replica_ticks, 0.0);
}

// ---------------------------------------------------------------------
// Traffic mixes: the factor algebra behind the arrival shaping.

TEST(TrafficMix, DiurnalFactorOscillatesBetweenOneAndPeak)
{
    fault::DiurnalPolicy d;
    d.period_s = 1.0;
    d.peak_factor = 3.0;
    d.phase = 0.25; // peak at t = 0.25
    EXPECT_TRUE(d.enabled());
    EXPECT_DOUBLE_EQ(d.factorAt(0.25), 3.0);
    EXPECT_DOUBLE_EQ(d.factorAt(0.75), 1.0); // trough half a period on
    for (double t = 0.0; t < 2.0; t += 0.05) {
        EXPECT_GE(d.factorAt(t), 1.0);
        EXPECT_LE(d.factorAt(t), 3.0);
    }
    // Periodicity.
    EXPECT_NEAR(d.factorAt(0.1), d.factorAt(1.1), 1e-12);

    fault::DiurnalPolicy off;
    EXPECT_FALSE(off.enabled());
    EXPECT_DOUBLE_EQ(off.factorAt(0.4), 1.0);
}

TEST(TrafficMix, MaterializedWindowsAmplifyAndConserveShape)
{
    const double horizon = 0.02;
    for (const auto &name : fault::trafficScenarioNames()) {
        fault::TrafficMix mix = fault::trafficScenario(name, horizon);
        EXPECT_TRUE(mix.enabled()) << name;
        EXPECT_TRUE(mix.validate().empty()) << name;
        auto windows = fault::materializeTraffic(mix, horizon);
        ASSERT_FALSE(windows.empty()) << name;
        double prev_end = 0.0;
        for (const auto &w : windows) {
            // Ordered, non-overlapping, inside the horizon, and every
            // window really amplifies (factor-1 windows are dropped).
            EXPECT_GE(w.from_s, prev_end) << name;
            EXPECT_LT(w.from_s, w.to_s) << name;
            EXPECT_LE(w.to_s, horizon + 1e-9) << name;
            EXPECT_GT(w.factor, 1.0) << name;
            prev_end = w.to_s;
        }
    }
    // A default mix materializes nothing.
    fault::TrafficMix none;
    EXPECT_FALSE(none.enabled());
    EXPECT_TRUE(fault::materializeTraffic(none, horizon).empty());
}

TEST(TrafficMix, TenantSharesBlendFactors)
{
    // One flat tenant and one surging tenant with equal shares: the
    // blended factor is the share-weighted average.
    fault::TrafficMix mix;
    fault::TenantClass flat;
    flat.name = "batch";
    flat.share = 0.5;
    fault::TenantClass spiky;
    spiky.name = "interactive";
    spiky.share = 0.5;
    spiky.surges.push_back({0.0, 1.0, 3.0});
    mix.tenants = {flat, spiky};
    EXPECT_TRUE(mix.validate().empty());
    // Inside the surge: 0.5 * 1 + 0.5 * 3 = 2.
    EXPECT_NEAR(mix.factorAt(0.5), 2.0, 1e-12);
    // Outside: both flat.
    EXPECT_NEAR(mix.factorAt(1.5), 1.0, 1e-12);
}

// ---------------------------------------------------------------------
// Spec validation: fleet knobs reject nonsense, good specs pass, and
// the cluster-level cross-checks fire.

TEST(FleetSpecValidate, ReportsAutoscalerAndTrafficProblems)
{
    cluster::FleetSpec fleet;
    EXPECT_TRUE(fleet.validate().empty()) << "default spec is off";

    fleet.autoscaler.enabled = true;
    fleet.autoscaler.min_replicas = 0;
    fleet.autoscaler.max_replicas = 0;
    fleet.autoscaler.target_p99_s = 0.0;
    fleet.autoscaler.low_watermark = 1.5;
    fleet.autoscaler.target_utilization = 0.0;
    fleet.autoscaler.decision_interval_s = 0.0;
    fleet.autoscaler.cooldown_s = -1.0;
    fleet.autoscaler.warmup_s = -1.0;
    fleet.autoscaler.estimate_window = 0;
    fleet.autoscaler.min_samples = 0;
    // min_replicas, target_p99, low_watermark, target_utilization,
    // decision_interval, cooldown, warmup, estimate_window,
    // min_samples.
    EXPECT_EQ(fleet.validate().size(), 9u);

    cluster::FleetSpec bad_traffic;
    fault::TenantClass t;
    t.name = "";
    t.share = 0.0;
    bad_traffic.traffic.tenants.push_back(t);
    EXPECT_FALSE(bad_traffic.traffic.validate().empty());
}

TEST(ClusterSpecValidate, FleetCrossChecksFire)
{
    cluster::ClusterSpec spec;
    spec.replicas = 4;
    spec.fleet.shards = 8; // more shards than replicas
    spec.fleet.autoscaler.enabled = true;
    spec.fleet.autoscaler.min_replicas = 9; // exceeds the fleet
    spec.fleet.autoscaler.target_p99_s = 0.001;
    auto errors = spec.validate();
    std::size_t fleet_errors = 0;
    for (const auto &e : errors)
        if (e.rfind("fleet:", 0) == 0)
            ++fleet_errors;
    EXPECT_EQ(fleet_errors, 2u) << "shards > replicas, min > fleet";

    // Sharding, autoscaling and the resilience control plane compose.
    cluster::ClusterSpec ok;
    ok.replicas = 8;
    ok.fleet.shards = 4;
    ok.fleet.autoscaler.enabled = true;
    ok.fleet.autoscaler.min_replicas = 2;
    ok.fleet.autoscaler.target_p99_s = 0.001;
    ok.resilience.retry.enabled = true;
    ok.resilience.breaker.enabled = true;
    EXPECT_TRUE(ok.resilience.enabled());
    EXPECT_TRUE(ok.validate().empty());
}

} // namespace
} // namespace equinox
