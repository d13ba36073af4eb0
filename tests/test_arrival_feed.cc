/**
 * @file
 * The arrival feed equals the materialized routing path.
 *
 * Cluster::run no longer routes the whole horizon into per-replica
 * traces before the replicas run: each replica pulls its ticks from a
 * cluster::ArrivalFeed, which routes only as far as some replica
 * reads. The reference here is the materialized path the feed
 * replaced: route() (FleetRouter's, or the ControlPlane's over it)
 * hands out full-horizon traces, the training coordinator places
 * training by its counts, and every replica runs on its trace through
 * RunSpec::arrival_trace_ticks. Cluster::run must match it field by
 * field -- router counts, resilience and autoscaler stats, the
 * placement, and every replica's SimResult digest -- across routing
 * policies, shards with chaos, a replica dead all run, partial
 * training placement, the autoscaler and the control plane, at jobs 1
 * and 4. Around it: the feed's own contract against route(), and the
 * memory bound that motivates it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "cluster/arrival_feed.hh"
#include "cluster/cluster.hh"
#include "cluster_digest.hh"
#include "common/random.hh"
#include "common/units.hh"
#include "fault/traffic_mix.hh"
#include "sim/accelerator.hh"
#include "sim/result_digest.hh"

namespace equinox
{
namespace
{

std::uint64_t
ceilDiv(std::uint64_t a, std::uint64_t b)
{
    return b ? (a + b - 1) / b : a;
}

core::ExperimentOptions
baseOptions()
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

/** Everything the materialized path decides before and after the
 *  replicas run. */
struct Materialized
{
    cluster::RouterResult routed;
    cluster::ResilienceStats rstats;
    cluster::AutoscalerStats autoscaler;
    std::vector<char> trains;
    std::vector<sim::SimResult> sims;
};

/**
 * Cluster::run as it was before the feed: the same rate, outage,
 * surge and router arithmetic, route() over the whole horizon, the
 * coordinator on full-horizon counts, and one trace-fed run per
 * replica.
 */
Materialized
runMaterialized(const sim::AcceleratorConfig &cfg,
                const cluster::ClusterSpec &spec, double load,
                const core::ExperimentOptions &opts,
                const core::CompiledWorkload &compiled)
{
    const std::size_t n = spec.replicas;
    const double f = cfg.frequency_hz;
    const isa::CompiledProgram &prog = compiled.inference.program;
    const double mu_req = prog.saturationOpRate(f) / prog.opsPerRequest();
    const double per_replica_rate = load * mu_req;
    const Tick max_ticks = units::secondsToCycles(opts.max_sim_s, f);

    fault::MaterializedChaos chaos;
    if (spec.chaos.enabled())
        chaos = fault::materializeChaos(spec.chaos, n, opts.max_sim_s);
    std::vector<cluster::RouterOutage> outages;
    for (const auto &o : spec.outages)
        outages.push_back({o.replica, units::secondsToCycles(o.from_s, f),
                           units::secondsToCycles(o.to_s, f)});
    for (const auto &o : chaos.outages)
        outages.push_back({o.replica, units::secondsToCycles(o.from_s, f),
                           units::secondsToCycles(o.to_s, f)});
    std::vector<ArrivalSurge> surges;
    for (const auto &s : chaos.surges)
        surges.push_back({units::secondsToCycles(s.from_s, f),
                          units::secondsToCycles(s.to_s, f), s.factor});
    if (spec.fleet.traffic.enabled()) {
        for (const auto &s :
             fault::materializeTraffic(spec.fleet.traffic, opts.max_sim_s))
            surges.push_back({units::secondsToCycles(s.from_s, f),
                              units::secondsToCycles(s.to_s, f),
                              s.factor});
    }
    double rate_cycle = per_replica_rate * static_cast<double>(n) / f;
    if (spec.arrival_process == sim::ArrivalProcess::Bursty)
        rate_cycle *= spec.burst_factor;

    cluster::FleetRouter::Config fc;
    fc.replica_policy = spec.policy;
    fc.shard_policy = spec.fleet.shard_policy;
    fc.replicas = n;
    fc.shards = std::max<std::size_t>(spec.fleet.shards, 1);
    fc.service_rate_per_cycle = mu_req / f;
    fc.latency_window = spec.latency_window;
    const cluster::AutoscalerSpec &as = spec.fleet.autoscaler;
    if (as.enabled) {
        fc.autoscale = true;
        fc.min_active = as.min_replicas;
        fc.max_active = as.max_replicas;
        fc.initial_active = as.initial_replicas;
        fc.target_p99_cycles = as.target_p99_s * f;
        fc.low_watermark = as.low_watermark;
        fc.target_utilization = as.target_utilization;
        fc.decision_interval = std::max<Tick>(
            units::secondsToCycles(as.decision_interval_s, f), 1);
        fc.cooldown = units::secondsToCycles(as.cooldown_s, f);
        fc.warmup = units::secondsToCycles(as.warmup_s, f);
        fc.estimate_window = as.estimate_window;
        fc.min_samples = as.min_samples;
    }

    Materialized m;
    cluster::FleetRouter router(fc, outages);
    const bool cp_on = spec.resilience.enabled();
    double overload_frac = 0.0;
    if (cp_on) {
        cluster::ControlPlane cp(spec.resilience, router);
        m.routed = cp.route(rate_cycle, opts.seed, max_ticks, surges);
        m.rstats = cp.stats();
        overload_frac = cp.overloadFraction();
    } else {
        m.routed = router.route(rate_cycle, opts.seed, max_ticks, surges);
    }
    m.autoscaler = router.autoscalerStats();

    m.trains.assign(n, 0);
    if (compiled.training) {
        std::size_t k = spec.train_replicas == 0
                            ? n
                            : std::min(spec.train_replicas, n);
        if (cp_on && spec.resilience.shed_training_under_overload) {
            auto shed = std::min(
                k, static_cast<std::size_t>(std::floor(
                       overload_frac * static_cast<double>(k))));
            m.rstats.training_replicas_shed = shed;
            k -= shed;
        }
        std::vector<std::size_t> order(n);
        std::iota(order.begin(), order.end(), std::size_t{0});
        if (as.enabled) {
            order.erase(std::remove_if(order.begin(), order.end(),
                                       [&](std::size_t r) {
                                           return !router.everActive(r);
                                       }),
                        order.end());
            k = std::min(k, order.size());
        }
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return m.routed.assigned[a] <
                                    m.routed.assigned[b];
                         });
        for (std::size_t i = 0; i < k; ++i)
            m.trains[order[i]] = 1;
    }

    for (std::size_t r = 0; r < n; ++r) {
        sim::Accelerator accel(cfg);
        accel.installInference(compiled.inference);
        if (m.trains[r])
            accel.installTraining(*compiled.training);
        sim::RunSpec rs;
        rs.arrival_rate_per_s =
            m.routed.traces[r].empty() ? 0.0 : per_replica_rate;
        rs.arrival_process = spec.arrival_process;
        rs.burst_factor = spec.burst_factor;
        rs.burst_period_s = spec.burst_period_s;
        rs.arrival_trace_ticks = m.routed.traces[r];
        rs.warmup_requests = ceilDiv(opts.warmup_requests, n);
        rs.warmup_s = opts.warmup_s;
        rs.measure_requests = ceilDiv(opts.measure_requests, n);
        rs.min_measure_s = opts.min_measure_s;
        rs.measure_iterations = opts.measure_iterations;
        rs.max_sim_s = opts.max_sim_s;
        rs.seed = opts.seed + r;
        rs.fast_forward = opts.fast_forward;
        rs.faults = opts.fault_plan;
        if (r > 0)
            rs.faults.seed += static_cast<std::uint64_t>(r) * 9973;
        if (spec.chaos.enabled()) {
            for (const auto &sf : chaos.replica_faults[r])
                rs.faults.scheduled.push_back(sf);
        }
        m.sims.push_back(accel.run(rs));
    }
    return m;
}

std::uint64_t
resilienceDigest(const cluster::ResilienceStats &s)
{
    // The ResilienceStats fields the cluster digest folds, plus the
    // high-water marks it leaves out.
    cluster::ClusterPointResult shell;
    shell.resilience = s;
    testutil::ResultDigest dg;
    testutil::foldClusterPoint(dg, shell);
    dg.u64(s.dispatch_heap_high_water);
    dg.u64(s.retry_heap_high_water);
    return dg.value();
}

std::uint64_t
autoscalerDigest(const cluster::AutoscalerStats &s)
{
    cluster::ClusterPointResult shell;
    shell.autoscaled = true;
    shell.autoscaler = s;
    testutil::ResultDigest dg;
    testutil::foldFleetFields(dg, shell);
    return dg.value();
}

/** Cluster::run at jobs 1 and 4 against the materialized path. */
void
expectFeedMatchesMaterialized(const cluster::ClusterSpec &spec,
                              double load, core::ExperimentOptions opts)
{
    const auto cfg = testutil::smallConfig();
    const auto compiled = core::compileWorkload(cfg, opts);
    const Materialized ref =
        runMaterialized(cfg, spec, load, opts, compiled);
    const std::size_t n = spec.replicas;

    std::uint64_t jobs1_digest = 0;
    for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE(::testing::Message() << "jobs " << jobs);
        opts.jobs = jobs;
        const cluster::ClusterPointResult res =
            cluster::Cluster(cfg, spec).run(load, opts, compiled);

        EXPECT_EQ(res.generated_candidates, ref.routed.generated);
        EXPECT_EQ(res.router_shed, ref.routed.shed);
        EXPECT_EQ(res.rerouted, ref.routed.rerouted);
        EXPECT_EQ(resilienceDigest(res.resilience),
                  resilienceDigest(ref.rstats));
        if (res.autoscaled) {
            EXPECT_EQ(autoscalerDigest(res.autoscaler),
                      autoscalerDigest(ref.autoscaler));
        }
        ASSERT_EQ(res.per_replica.size(), n);
        stats::LatencyTracker merged;
        std::uint64_t completed = 0;
        for (std::size_t r = 0; r < n; ++r) {
            SCOPED_TRACE(::testing::Message() << "replica " << r);
            const auto &rep = res.per_replica[r];
            EXPECT_EQ(rep.assigned_candidates, ref.routed.assigned[r]);
            EXPECT_EQ(rep.training, ref.trains[r] != 0);
            EXPECT_EQ(sim::resultDigest(rep.sim),
                      sim::resultDigest(ref.sims[r]));
            EXPECT_EQ(rep.sim.admitted_requests,
                      ref.sims[r].admitted_requests);
            merged.merge(ref.sims[r].latency_cycles);
            completed += ref.sims[r].completed_requests;
        }
        EXPECT_EQ(res.completed_requests, completed);
        ASSERT_EQ(res.merged_latency_cycles.count(), merged.count());
        if (merged.count() > 0) {
            const double inv_f = 1.0 / cfg.frequency_hz;
            EXPECT_EQ(res.p99_latency_s, merged.percentile(0.99) * inv_f);
            EXPECT_EQ(res.max_latency_s, merged.max() * inv_f);
        }
        // The buffers never hold more than the materialized traces.
        std::uint64_t traced = 0;
        for (const auto &trace : ref.routed.traces)
            traced += trace.size();
        EXPECT_LE(res.feed_buffer_high_water, traced);

        if (jobs == 1)
            jobs1_digest = testutil::digestOf(res);
        else
            EXPECT_EQ(testutil::digestOf(res), jobs1_digest);
    }
}

TEST(ArrivalFeedCluster, FlatPoliciesMatchMaterializedTraces)
{
    for (auto policy : cluster::allRoutingPolicies()) {
        SCOPED_TRACE(cluster::routingPolicyName(policy));
        cluster::ClusterSpec spec;
        spec.replicas = 4;
        spec.policy = policy;
        expectFeedMatchesMaterialized(spec, 0.7, baseOptions());
    }
}

TEST(ArrivalFeedCluster, ShardsUnderChaosMatchMaterializedTraces)
{
    core::ExperimentOptions opts = baseOptions();
    opts.seed = 23;
    cluster::ClusterSpec spec;
    spec.replicas = 6;
    spec.policy = cluster::RoutingPolicy::JoinShortestQueue;
    spec.fleet.shards = 2;
    spec.fleet.shard_policy = cluster::RoutingPolicy::LatencyAware;
    spec.chaos = fault::chaosScenario("flash_crowd_outage",
                                      opts.max_sim_s, opts.seed);
    expectFeedMatchesMaterialized(spec, 0.8, opts);
}

TEST(ArrivalFeedCluster, ReplicaDeadAllRunOffersNothing)
{
    core::ExperimentOptions opts = baseOptions();
    cluster::ClusterSpec spec;
    spec.replicas = 3;
    spec.policy = cluster::RoutingPolicy::RoundRobin;
    spec.outages.push_back({1, 0.0, 1.0});
    expectFeedMatchesMaterialized(spec, 0.6, opts);

    // The dead replica was offered rate 0: it admitted nothing.
    cluster::ClusterPointResult res =
        cluster::Cluster(testutil::smallConfig(), spec).run(0.6, opts);
    EXPECT_EQ(res.per_replica[1].assigned_candidates, 0u);
    EXPECT_EQ(res.per_replica[1].sim.admitted_requests, 0u);
    EXPECT_GT(res.per_replica[0].sim.admitted_requests, 0u);
}

TEST(ArrivalFeedCluster, PartialTrainingPlacementMatchesMaterializedTraces)
{
    cluster::ClusterSpec spec;
    spec.replicas = 5;
    spec.policy = cluster::RoutingPolicy::JoinShortestQueue;
    spec.train_replicas = 2;
    spec.outages.push_back({3, 0.002, 0.006});
    expectFeedMatchesMaterialized(spec, 0.7, baseOptions());
}

TEST(ArrivalFeedCluster, AutoscalerMatchesMaterializedTraces)
{
    core::ExperimentOptions opts = baseOptions();
    opts.seed = 31;
    cluster::ClusterSpec spec;
    spec.replicas = 6;
    spec.policy = cluster::RoutingPolicy::LatencyAware;
    spec.fleet.autoscaler.enabled = true;
    spec.fleet.autoscaler.min_replicas = 2;
    spec.fleet.autoscaler.target_p99_s = 2e-4;
    spec.fleet.autoscaler.decision_interval_s = 5e-4;
    spec.fleet.autoscaler.cooldown_s = 1e-3;
    spec.fleet.autoscaler.warmup_s = 2e-4;
    spec.fleet.traffic = fault::trafficScenario(
        fault::trafficScenarioNames().front(), opts.max_sim_s);
    // With training, the placement reads everActive: routed to the end
    // first. Without it, the replicas pull through the autoscaler.
    expectFeedMatchesMaterialized(spec, 0.6, opts);
    opts.train_model.reset();
    expectFeedMatchesMaterialized(spec, 0.6, opts);
}

TEST(ArrivalFeedCluster, ControlPlaneMatchesMaterializedTraces)
{
    core::ExperimentOptions opts = baseOptions();
    const double f = testutil::smallConfig().frequency_hz;
    cluster::ClusterSpec spec;
    spec.replicas = 4;
    spec.policy = cluster::RoutingPolicy::JoinShortestQueue;
    spec.chaos = fault::chaosScenario("flash_crowd_outage",
                                      opts.max_sim_s, opts.seed);
    cluster::ResilienceSpec &rs = spec.resilience;
    rs.admission.background_fraction = 0.3;
    rs.retry.enabled = true;
    rs.retry.max_attempts = 4;
    rs.retry.base_backoff_cycles = static_cast<Tick>(1e-4 * f);
    rs.hedge.enabled = true;
    rs.hedge.latency_factor = 1.0;
    rs.hedge.window = 64;
    rs.hedge.min_samples = 16;
    rs.hedge.max_hedge_fraction = 0.05;
    rs.breaker.enabled = true;
    // Every replica trains: the replicas pull from the control plane.
    expectFeedMatchesMaterialized(spec, 0.9, opts);
    // Shedding training under overload reads the whole run's overload
    // fraction, so this one routes to the end first.
    rs.shed_training_under_overload = true;
    rs.training_shed_backlog = 1.0;
    expectFeedMatchesMaterialized(spec, 0.9, opts);
}

// ---------------------------------------------------------------------
// The feed's own contract, against route()

cluster::FleetRouter::Config
flatConfig(cluster::RoutingPolicy policy, std::size_t replicas)
{
    cluster::FleetRouter::Config fc;
    fc.replica_policy = policy;
    fc.replicas = replicas;
    fc.service_rate_per_cycle = 0.01;
    return fc;
}

TEST(ArrivalFeed, InterleavedPullsReadRouteTraces)
{
    // Replicas pull in a random interleaving, and some stop early and
    // release: every tick read is route()'s, in order, and the counts
    // match once the feed has routed to the end.
    const Tick kHorizon = 200000;
    const std::vector<cluster::RouterOutage> outages = {{2, 1000, 60000}};
    for (auto policy : cluster::allRoutingPolicies()) {
        SCOPED_TRACE(cluster::routingPolicyName(policy));
        cluster::FleetRouter twin(flatConfig(policy, 4), outages);
        const cluster::RouterResult ref =
            twin.route(0.03, 9, kHorizon);

        cluster::FleetRouter router(flatConfig(policy, 4), outages);
        cluster::ArrivalFeed feed(router, nullptr, 0.03, 9, kHorizon, {});
        std::vector<std::size_t> read(4, 0);
        std::vector<bool> stopped(4, false);
        // Replica 3 reads a tenth of its trace, then stops.
        const std::size_t stop_after = ref.traces[3].size() / 10;
        Rng pick(77);
        for (std::size_t live = 4; live > 0;) {
            std::size_t r = pick.uniformInt(0, 3);
            if (stopped[r])
                continue;
            Tick t = 0;
            if (r == 3 && read[r] == stop_after) {
                feed.release(r);
                stopped[r] = true;
                --live;
                continue;
            }
            if (!feed.next(r, t)) {
                EXPECT_EQ(read[r], ref.traces[r].size());
                stopped[r] = true;
                --live;
                continue;
            }
            ASSERT_LT(read[r], ref.traces[r].size());
            ASSERT_EQ(t, ref.traces[r][read[r]]) << "replica " << r;
            ++read[r];
        }
        feed.routeToEnd();
        EXPECT_EQ(feed.assigned(), ref.assigned);
        EXPECT_EQ(feed.generated(), ref.generated);
        EXPECT_EQ(feed.shed(), ref.shed);
        EXPECT_EQ(feed.rerouted(), ref.rerouted);
    }
}

TEST(ArrivalFeed, HasNextKeepsTheTickAndFindsEmptyReplicas)
{
    // Replica 1 is dead all run: hasNext routes the whole stream to
    // learn it, and replica 0's first tick waits in its buffer.
    const Tick kHorizon = 50000;
    const std::vector<cluster::RouterOutage> outages = {{1, 0, kHorizon * 2}};
    cluster::FleetRouter twin(
        flatConfig(cluster::RoutingPolicy::RoundRobin, 2), outages);
    const cluster::RouterResult ref = twin.route(0.02, 4, kHorizon);
    ASSERT_TRUE(ref.traces[1].empty());

    cluster::FleetRouter router(
        flatConfig(cluster::RoutingPolicy::RoundRobin, 2), outages);
    cluster::ArrivalFeed feed(router, nullptr, 0.02, 4, kHorizon, {});
    EXPECT_TRUE(feed.hasNext(0));
    EXPECT_TRUE(feed.hasNext(0));
    EXPECT_FALSE(feed.hasNext(1));
    Tick t = 0;
    EXPECT_FALSE(feed.next(1, t));
    for (Tick want : ref.traces[0]) {
        ASSERT_TRUE(feed.next(0, t));
        EXPECT_EQ(t, want);
    }
    EXPECT_FALSE(feed.next(0, t));
    EXPECT_EQ(feed.bufferHighWater(), ref.traces[0].size());
}

TEST(ArrivalFeed, ControlPlaneStepsEqualRoute)
{
    cluster::ResilienceSpec rs;
    rs.admission.background_fraction = 0.2;
    rs.retry.enabled = true;
    rs.retry.base_backoff_cycles = 300;
    rs.hedge.enabled = true;
    rs.hedge.latency_factor = 1.0;
    rs.hedge.min_samples = 8;
    rs.hedge.window = 32;
    rs.hedge.max_hedge_fraction = 0.1;
    const Tick kHorizon = 100000;
    const std::vector<cluster::RouterOutage> outages = {{0, 0, 30000},
                                                        {1, 10000, 40000}};
    auto fc = flatConfig(cluster::RoutingPolicy::JoinShortestQueue, 2);

    cluster::FleetRouter twin_router(fc, outages);
    cluster::ControlPlane twin(rs, twin_router);
    const cluster::RouterResult ref = twin.route(0.03, 5, kHorizon);

    cluster::FleetRouter router(fc, outages);
    cluster::ControlPlane cp(rs, router);
    cluster::ArrivalFeed feed(router, &cp, 0.03, 5, kHorizon, {});
    for (std::size_t r = 0; r < 2; ++r) {
        Tick t = 0;
        for (Tick want : ref.traces[r]) {
            ASSERT_TRUE(feed.next(r, t));
            EXPECT_EQ(t, want);
        }
        EXPECT_FALSE(feed.next(r, t));
    }
    feed.routeToEnd();
    EXPECT_EQ(feed.assigned(), ref.assigned);
    EXPECT_EQ(feed.generated(), ref.generated);
    EXPECT_EQ(feed.shed(), ref.shed);
    EXPECT_EQ(resilienceDigest(cp.stats()), resilienceDigest(twin.stats()));
    EXPECT_GT(cp.stats().retry_attempts, 0u);
    EXPECT_GT(cp.stats().hedges_issued, 0u);
}

// ---------------------------------------------------------------------
// Memory bound

TEST(ArrivalFeedCluster, PullingReplicasBufferAFractionOfTheHorizon)
{
    // perfbench fleet_route's shape on the small design: 8 training
    // replicas whose measured windows close long before the horizon.
    // They pull, so the feed stores a fraction of what route() would
    // have materialized.
    core::ExperimentOptions opts = baseOptions();
    opts.max_sim_s = 0.05;
    opts.warmup_requests = 80;
    opts.measure_requests = 480;
    cluster::ClusterSpec spec;
    spec.replicas = 8;
    spec.policy = cluster::RoutingPolicy::LatencyAware;
    const auto cfg = testutil::smallConfig();
    for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        opts.jobs = jobs;
        cluster::ClusterPointResult res =
            cluster::Cluster(cfg, spec).run(0.7, opts);
        SCOPED_TRACE(::testing::Message()
                     << "jobs " << jobs << ": high water "
                     << res.feed_buffer_high_water << " of "
                     << res.generated_candidates);
        EXPECT_GT(res.feed_buffer_high_water, 0u);
        EXPECT_LT(static_cast<double>(res.feed_buffer_high_water),
                  0.25 * static_cast<double>(res.generated_candidates));
    }

    // A partial placement routes the whole horizon first: everything
    // assigned is buffered before the first replica runs.
    spec.train_replicas = 4;
    opts.jobs = 1;
    cluster::ClusterPointResult res =
        cluster::Cluster(cfg, spec).run(0.7, opts);
    EXPECT_EQ(res.feed_buffer_high_water,
              res.generated_candidates - res.router_shed);
}

} // namespace
} // namespace equinox
