/**
 * @file
 * Property tests for the cluster layer.
 *
 * The heart is a randomized sweep: ~50 seeded configurations drawn
 * over replica count, routing policy, load (including overload),
 * arrival process, fault plans, planned outages, training placement
 * and jobs count, each checked against invariants that must hold for
 * EVERY configuration:
 *
 *  - request conservation: router candidates are exactly assigned +
 *    shed; every replica's admissions equal retirements + in-flight
 *    at the horizon,
 *  - per-replica time never runs backwards (trace ticks monotone),
 *  - every retired request's latency is at least the workload's
 *    minimum service time (the full-batch MMU busy cycles),
 *  - the merged cluster percentiles equal exact percentiles over the
 *    concatenated per-replica samples, bit for bit.
 *
 * Around it sit deterministic unit tests of the Router, the
 * ReplicaEstimator, spec validation, the merged Perfetto export and
 * the MetricsSnapshot cluster section -- the pieces the randomized
 * sweep exercises but cannot pin point-wise.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <fstream>
#include <set>
#include <sstream>

#include "cluster/cluster.hh"
#include "cluster/router.hh"
#include "cluster/sweep.hh"
#include "cluster_digest.hh"
#include "flat_route.hh"
#include "common/random.hh"
#include "obs/chrome_trace.hh"
#include "obs/metrics_snapshot.hh"
#include "sim/blocks/trace.hh"

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
    opts.measure_requests = 300;
    opts.seed = 17;
    // Runs here need a couple of simulated milliseconds; a tight
    // horizon keeps the routed candidate streams small.
    opts.max_sim_s = 0.02;
    return opts;
}

// ---------------------------------------------------------------------
// ReplicaEstimator

TEST(ReplicaEstimator, BacklogGrowsOnAssignAndDrainsOverTime)
{
    cluster::ReplicaEstimator est(0.01, 4); // 1 request per 100 cycles
    EXPECT_DOUBLE_EQ(est.backlog(), 0.0);
    est.assign(0);
    est.assign(0);
    EXPECT_DOUBLE_EQ(est.backlog(), 2.0);
    EXPECT_EQ(est.assigned(), 2u);
    // 100 cycles drain one request's worth of fluid.
    est.drainTo(100);
    EXPECT_DOUBLE_EQ(est.backlog(), 1.0);
    // The drain clamps at empty instead of going negative.
    est.drainTo(1000000);
    EXPECT_DOUBLE_EQ(est.backlog(), 0.0);
}

TEST(ReplicaEstimator, LatencyEstimateCountsTheNewRequest)
{
    cluster::ReplicaEstimator est(0.01, 4);
    // Empty queue: the new request still waits its own service time.
    EXPECT_DOUBLE_EQ(est.estimatedLatencyCycles(), 100.0);
    est.assign(0);
    EXPECT_DOUBLE_EQ(est.estimatedLatencyCycles(), 200.0);
}

TEST(ReplicaEstimator, WindowP99IsOverTheLastWindowEstimates)
{
    cluster::ReplicaEstimator est(0.01, 2);
    est.assign(0); // estimate 100 enters the window
    est.assign(0); // estimate 200
    est.assign(0); // estimate 300; window keeps {200, 300}
    stats::LatencyTracker expect;
    expect.record(200.0);
    expect.record(300.0);
    EXPECT_DOUBLE_EQ(est.windowP99(), expect.percentile(0.99));
}

TEST(ReplicaEstimator, LazyWindowP99MatchesTheLastWindowEstimates)
{
    // A JSQ router never reads windowP99() while routing, so each
    // estimator's window only collects pushes. The first read after
    // 3w+ assignments (the control plane's breaker-health read with
    // latency_trip_cycles > 0) re-sorts the window; later reads after
    // a few more assignments replay them. Both must equal, bit for
    // bit, the p99 of the last w estimates collected by hand.
    const std::size_t replicas = 4;
    const std::size_t window = 16;
    cluster::Router router(cluster::RoutingPolicy::JoinShortestQueue,
                           replicas, 0.002, window, {});
    std::vector<std::deque<double>> recent(replicas);
    Rng rng(424242);
    Tick t = 0;
    auto route = [&](std::size_t candidates) {
        for (std::size_t i = 0; i < candidates; ++i) {
            t += rng.uniformInt(0, 250); // about 100% load
            std::size_t r = router.pick(t);
            ASSERT_NE(r, cluster::kNoReplica);
            recent[r].push_back(
                router.estimators()[r].lastAssignmentEstimateCycles());
            if (recent[r].size() > window)
                recent[r].pop_front();
        }
    };
    auto expectWindowP99 = [&] {
        for (std::size_t r = 0; r < replicas; ++r) {
            stats::LatencyTracker tracker;
            for (double s : recent[r])
                tracker.record(s);
            double got = router.estimators()[r].windowP99();
            double want = tracker.percentile(0.99);
            ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0)
                << "replica " << r << ": " << got << " vs " << want;
        }
    };

    route(replicas * window * 6);
    for (std::size_t r = 0; r < replicas; ++r)
        ASSERT_GE(router.estimators()[r].assigned(), 3 * window);
    expectWindowP99();
    for (int round = 0; round < 8; ++round) {
        route(rng.uniformInt(1, replicas * window / 2));
        expectWindowP99();
    }
}

// ---------------------------------------------------------------------
// Router

TEST(Router, RoundRobinCyclesReplicas)
{
    cluster::Router router(cluster::RoutingPolicy::RoundRobin, 3, 0.01,
                           4, {});
    EXPECT_EQ(router.pick(1), 0u);
    EXPECT_EQ(router.pick(2), 1u);
    EXPECT_EQ(router.pick(3), 2u);
    EXPECT_EQ(router.pick(4), 0u);
    EXPECT_EQ(router.reroutedCount(), 0u);
}

TEST(Router, RoundRobinReroutesAroundOutage)
{
    cluster::Router router(cluster::RoutingPolicy::RoundRobin, 3, 0.01,
                           4, {{1, 0, 100}});
    EXPECT_FALSE(router.alive(1, 0));
    EXPECT_TRUE(router.alive(1, 100)); // [from, to) half-open
    EXPECT_EQ(router.pick(1), 0u);
    EXPECT_EQ(router.pick(2), 2u); // 1 is down: skipped, counted
    EXPECT_EQ(router.reroutedCount(), 1u);
    EXPECT_EQ(router.pick(200), 0u);
    EXPECT_EQ(router.pick(201), 1u); // outage over: back in rotation
}

TEST(Router, ShedsWhenEveryReplicaIsDown)
{
    cluster::Router router(cluster::RoutingPolicy::RoundRobin, 2, 0.01,
                           4, {{0, 0, 100}, {1, 0, 100}});
    EXPECT_EQ(router.pick(10), cluster::kNoReplica);
    EXPECT_EQ(router.shedCount(), 1u);
    EXPECT_NE(router.pick(150), cluster::kNoReplica);
}

TEST(Router, JoinShortestQueuePrefersEmptiestTieToLowestIndex)
{
    cluster::Router router(cluster::RoutingPolicy::JoinShortestQueue, 3,
                           0.01, 4, {});
    // All empty: tie breaks to replica 0, then its backlog sends the
    // next two picks to 1 and 2, then the cycle restarts.
    EXPECT_EQ(router.pick(0), 0u);
    EXPECT_EQ(router.pick(0), 1u);
    EXPECT_EQ(router.pick(0), 2u);
    EXPECT_EQ(router.pick(0), 0u);
    // After a long drain everything is empty again: lowest index wins.
    EXPECT_EQ(router.pick(1000000), 0u);
}

TEST(Router, JoinShortestQueueRoutesAroundOutage)
{
    cluster::Router router(cluster::RoutingPolicy::JoinShortestQueue, 2,
                           0.01, 4, {{0, 0, 1000}});
    EXPECT_EQ(router.pick(0), 1u);
    EXPECT_EQ(router.pick(0), 1u);
    EXPECT_EQ(router.reroutedCount(), 2u);
    EXPECT_EQ(router.pick(5000), 0u); // healthy and emptier now
}

TEST(Router, LatencyAwarePrefersLowestWindowP99)
{
    cluster::Router router(cluster::RoutingPolicy::LatencyAware, 2,
                           0.01, 8, {});
    // Untouched windows are empty (p99 = 0): the tie goes to replica
    // 0, whose window then holds one 100-cycle estimate, so replica
    // 1's still-empty window wins the next pick. Once both windows
    // hold {100} the tie again goes to the lowest index.
    EXPECT_EQ(router.pick(0), 0u);
    EXPECT_EQ(router.pick(0), 1u);
    EXPECT_EQ(router.pick(0), 0u);
}

TEST(Router, RouteConservesCandidatesAndEmitsSortedTraces)
{
    for (auto policy : cluster::allRoutingPolicies()) {
        cluster::Router router(policy, 3, 0.01, 8, {{2, 0, 5000}});
        cluster::RouterResult r =
            testutil::routeFlat(router, 0.002, 11, 100000);
        std::uint64_t assigned = 0;
        for (std::size_t i = 0; i < 3; ++i) {
            EXPECT_EQ(r.assigned[i], r.traces[i].size());
            assigned += r.assigned[i];
            for (std::size_t k = 1; k < r.traces[i].size(); ++k)
                EXPECT_LT(r.traces[i][k - 1], r.traces[i][k]);
        }
        EXPECT_EQ(r.generated, assigned + r.shed);
        EXPECT_EQ(r.shed, 0u) << "replicas 0/1 stayed up";
        EXPECT_GT(r.rerouted, 0u) << "replica 2's outage saw traffic";
        // The stream includes exactly one candidate past the horizon
        // (the event loop's one-past-the-end dispatch pattern).
        Tick last = 0;
        for (std::size_t i = 0; i < 3; ++i)
            if (!r.traces[i].empty())
                last = std::max(last, r.traces[i].back());
        EXPECT_GT(last, 100000u);
    }
}

TEST(Router, SingleReplicaRouteReplaysTheDispatcherRecipe)
{
    // The byte-identity contract: one replica's trace is exactly the
    // candidate sequence RequestDispatcher would draw itself.
    const std::uint64_t seed = 17;
    const double rate = 0.003;
    const Tick horizon = 50000;
    cluster::Router router(cluster::RoutingPolicy::RoundRobin, 1, 0.01,
                           4, {});
    cluster::RouterResult r =
        testutil::routeFlat(router, rate, seed, horizon);

    std::vector<Tick> expect;
    Rng rng(seed * 7919 + 1);
    Tick t = 0;
    while (true) {
        t += static_cast<Tick>(rng.exponential(rate)) + 1;
        expect.push_back(t);
        if (t > horizon)
            break;
    }
    EXPECT_EQ(r.traces[0], expect);
    EXPECT_EQ(r.generated, expect.size());
}

TEST(Router, ZeroRateYieldsNoTraffic)
{
    cluster::Router router(cluster::RoutingPolicy::RoundRobin, 2, 0.01,
                           4, {});
    cluster::RouterResult r = testutil::routeFlat(router, 0.0, 1, 1000);
    EXPECT_EQ(r.generated, 0u);
    EXPECT_TRUE(r.traces[0].empty());
    EXPECT_TRUE(r.traces[1].empty());
}

// ---------------------------------------------------------------------
// Spec validation

TEST(ClusterSpecValidate, ReportsEveryProblem)
{
    cluster::ClusterSpec spec;
    spec.replicas = 0;
    spec.latency_window = 0;
    spec.burst_factor = 0.5;
    spec.arrival_process = sim::ArrivalProcess::Bursty;
    spec.burst_period_s = 0.0;
    spec.outages.push_back({7, 0.0, 1.0});
    spec.outages.push_back({0, 2.0, 1.0});
    spec.replica_faults.resize(3);
    // replicas 0, window 0, burst factor, burst period, both outage
    // replicas out of range, one reversed window, fault-plan count.
    auto errors = spec.validate();
    EXPECT_EQ(errors.size(), 8u);

    cluster::ClusterSpec ok;
    EXPECT_TRUE(ok.validate().empty());
}

TEST(ClusterSpecValidateDeath, ConstructorRefusesBadSpec)
{
    cluster::ClusterSpec spec;
    spec.replicas = 0;
    EXPECT_DEATH(cluster::Cluster(testutil::smallConfig(), spec),
                 "invalid cluster spec");
}

// ---------------------------------------------------------------------
// The randomized property sweep.

struct DrawnConfig
{
    cluster::ClusterSpec spec;
    core::ExperimentOptions opts;
    double load = 0.0;
};

DrawnConfig
drawConfig(Rng &meta, std::size_t index)
{
    DrawnConfig c;
    c.opts = baseOptions();
    c.opts.seed = 100 + index;
    c.opts.warmup_requests = meta.uniformInt(0, 40);
    c.opts.measure_requests = 120 + meta.uniformInt(0, 180);
    c.opts.jobs = std::size_t{1} << meta.uniformInt(0, 2); // 1, 2 or 4

    static const std::size_t replica_choices[] = {1, 2, 2, 3, 4, 4, 8};
    c.spec.replicas = replica_choices[meta.uniformInt(0, 6)];
    auto policies = cluster::allRoutingPolicies();
    c.spec.policy = policies[meta.uniformInt(0, policies.size() - 1)];
    c.spec.latency_window = 1 + meta.uniformInt(0, 63);
    c.spec.train_replicas = meta.uniformInt(0, c.spec.replicas);
    if (meta.uniform() < 0.2)
        c.opts.train_model.reset(); // inference-only fleet

    if (meta.uniform() < 0.3) {
        c.spec.arrival_process = sim::ArrivalProcess::Bursty;
        c.spec.burst_factor = meta.uniform(2.0, 6.0);
        c.spec.burst_period_s = meta.uniform(5e-4, 4e-3);
    }
    if (meta.uniform() < 0.35) {
        fault::FaultPlan plan = testutil::densePlan();
        plan.seed = 1000 + index;
        plan.host_drop_prob = meta.uniform(0.0, 0.05);
        plan.mmu_hang_rate_per_s = meta.uniform(0.0, 150.0);
        c.opts.fault_plan = plan;
    }
    if (meta.uniform() < 0.25) {
        double from = meta.uniform(0.0, 0.005);
        c.spec.outages.push_back(
            {meta.uniformInt(0, c.spec.replicas - 1), from,
             from + meta.uniform(0.0005, 0.01)});
    }
    // Loads from light to mild overload.
    c.load = meta.uniform(0.05, 1.1);
    return c;
}

TEST(ClusterProperties, RandomConfigsUpholdInvariants)
{
    auto cfg = testutil::smallConfig();
    const double min_service_cycles = [&] {
        auto opts = baseOptions();
        auto compiled = core::compileWorkload(cfg, opts);
        return static_cast<double>(
            compiled.inference.program.mmuBusyCycles());
    }();

    Rng meta(20260806);
    const int kConfigs = 52;
    for (int i = 0; i < kConfigs; ++i) {
        DrawnConfig c = drawConfig(meta, static_cast<std::size_t>(i));
        SCOPED_TRACE(::testing::Message()
                     << "config " << i << ": replicas "
                     << c.spec.replicas << " policy "
                     << cluster::routingPolicyName(c.spec.policy)
                     << " load " << c.load << " jobs " << c.opts.jobs);

        auto compiled = core::compileWorkload(cfg, c.opts);
        cluster::Cluster fleet(cfg, c.spec);

        // One bounded in-memory sink per replica: the events double as
        // the monotone-time witnesses.
        std::vector<sim::VectorTraceSink> sinks(c.spec.replicas);
        std::vector<sim::TraceSink *> sink_ptrs;
        for (auto &s : sinks)
            sink_ptrs.push_back(&s);

        cluster::ClusterPointResult res =
            fleet.run(c.load, c.opts, compiled, sink_ptrs);

        // Router-side conservation: every generated candidate is
        // assigned to exactly one replica or shed.
        std::uint64_t assigned = 0;
        for (const auto &rep : res.per_replica)
            assigned += rep.assigned_candidates;
        EXPECT_EQ(res.generated_candidates, assigned + res.router_shed);

        // Replica-side conservation at the horizon, per replica and
        // summed: admissions all either retired or still in flight.
        std::uint64_t sum_admitted = 0, sum_retired = 0, sum_inflight = 0;
        for (const auto &rep : res.per_replica) {
            const sim::SimResult &s = rep.sim;
            EXPECT_EQ(s.admitted_requests,
                      s.retired_requests + s.inflight_requests)
                << "replica " << rep.replica;
            // Admissions never exceed the candidates routed here
            // (thinning, early stop and storm shedding only remove).
            EXPECT_LE(s.admitted_requests + s.faults.shed_requests,
                      rep.assigned_candidates);
            sum_admitted += s.admitted_requests;
            sum_retired += s.retired_requests;
            sum_inflight += s.inflight_requests;
        }
        EXPECT_EQ(res.admitted_requests, sum_admitted);
        EXPECT_EQ(res.retired_requests, sum_retired);
        EXPECT_EQ(res.inflight_requests, sum_inflight);
        EXPECT_EQ(res.admitted_requests,
                  res.retired_requests + res.inflight_requests);

        // Simulated time never runs backwards on any replica.
        for (std::size_t r = 0; r < sinks.size(); ++r) {
            const auto &evs = sinks[r].events();
            for (std::size_t k = 1; k < evs.size(); ++k)
                ASSERT_GE(evs[k].tick, evs[k - 1].tick)
                    << "replica " << r << " event " << k;
        }

        // Every measured request took at least the workload's minimum
        // service time (one full batch through the MMU).
        for (const auto &rep : res.per_replica)
            for (double sample : rep.sim.latency_cycles.rawSamples())
                ASSERT_GE(sample, min_service_cycles)
                    << "replica " << rep.replica;

        // The merged percentiles are exact order statistics of the
        // concatenated per-replica samples -- bit for bit.
        stats::LatencyTracker concat;
        for (const auto &rep : res.per_replica)
            for (double sample : rep.sim.latency_cycles.rawSamples())
                concat.record(sample);
        ASSERT_EQ(res.merged_latency_cycles.count(), concat.count());
        if (concat.count() > 0) {
            for (double p : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0})
                EXPECT_EQ(res.merged_latency_cycles.percentile(p),
                          concat.percentile(p))
                    << "p" << p;
            EXPECT_EQ(res.merged_latency_cycles.max(), concat.max());
            EXPECT_DOUBLE_EQ(res.merged_latency_cycles.mean(),
                             concat.mean());
        }

        // Availability is a fraction of the fleet-wide horizon; a
        // planned outage always costs some of it.
        EXPECT_GE(res.availability, 0.0);
        EXPECT_LE(res.availability, 1.0);
        if (!c.spec.outages.empty()) {
            EXPECT_GT(res.outage_cycles, 0u);
            EXPECT_LT(res.availability, 1.0);
        }

        // The training coordinator places exactly the requested number
        // of training services (everywhere when 0).
        std::size_t training = 0;
        for (const auto &rep : res.per_replica)
            training += rep.training ? 1 : 0;
        if (!c.opts.train_model) {
            EXPECT_EQ(training, 0u);
        } else if (c.spec.train_replicas == 0) {
            EXPECT_EQ(training, c.spec.replicas);
        } else {
            EXPECT_EQ(training,
                      std::min(c.spec.train_replicas, c.spec.replicas));
        }
    }
}

// ---------------------------------------------------------------------
// Observability: merged Perfetto export and the metrics section.

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(ClusterObs, MergedTraceShowsOneProcessPerReplica)
{
    auto cfg = testutil::smallConfig();
    auto opts = baseOptions();
    auto compiled = core::compileWorkload(cfg, opts);

    cluster::ClusterSpec cspec;
    cspec.replicas = 2;
    cluster::Cluster fleet(cfg, cspec);

    obs::ChromeTraceSink s0(cfg.frequency_hz, 1u << 22, 0, "replica-0");
    obs::ChromeTraceSink s1(cfg.frequency_hz, 1u << 22, 1, "replica-1");
    fleet.run(0.5, opts, compiled, {&s0, &s1});
    ASSERT_GT(s0.total(), 0u);
    ASSERT_GT(s1.total(), 0u);

    std::string path =
        ::testing::TempDir() + "equinox_cluster_trace.json";
    ASSERT_TRUE(obs::writeMergedTrace(path, {&s0, &s1}));

    std::string error;
    auto doc = obs::Json::parse(slurp(path), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    const obs::Json &rows = doc->at("traceEvents");
    std::set<std::int64_t> pids;
    std::set<std::string> names;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const obs::Json &ev = rows.at(i);
        pids.insert(ev.at("pid").asInt());
        if (ev.at("ph").asString() == "M" &&
            ev.at("name").asString() == "process_name")
            names.insert(ev.at("args").at("name").asString());
    }
    EXPECT_EQ(pids, (std::set<std::int64_t>{0, 1}));
    EXPECT_EQ(names, (std::set<std::string>{"replica-0", "replica-1"}));
    EXPECT_EQ(doc->at("otherData").at("events_total").asInt(),
              static_cast<std::int64_t>(s0.total() + s1.total()));

    EXPECT_FALSE(obs::writeMergedTrace("no_such_dir/sub/trace.json",
                                       {&s0, &s1}));
}

TEST(ClusterObs, SnapshotClusterSectionRoundTrips)
{
    auto cfg = testutil::smallConfig();
    auto opts = baseOptions();

    cluster::ClusterSpec cspec;
    cspec.replicas = 2;
    cspec.policy = cluster::RoutingPolicy::JoinShortestQueue;
    cspec.outages.push_back({1, 0.0, 0.002});
    opts.fault_plan = testutil::densePlan();

    auto points =
        core::runClusterSweep(cfg, cspec, {0.3, 0.7}, opts);
    obs::MetricsSnapshot snap;
    core::addClusterSweep(snap, "jsq2", points);

    std::string text = snap.toJson();
    std::string error;
    auto back = obs::MetricsSnapshot::parse(text, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->toJson(), text);

    auto doc = obs::Json::parse(text, &error);
    ASSERT_TRUE(doc.has_value()) << error;
    const obs::Json &sweep = doc->at("cluster").at("jsq2");
    ASSERT_EQ(sweep.size(), 2u);
    EXPECT_EQ(sweep.at(0).at("policy").asString(),
              "join_shortest_queue");
    EXPECT_EQ(sweep.at(0).at("replicas").asInt(), 2);
    ASSERT_NE(sweep.at(0).find("per_replica"), nullptr);
    ASSERT_NE(sweep.at(0).at("per_replica").find("r0"), nullptr);
    // The outage makes the fleet less than fully available.
    EXPECT_LT(sweep.at(0).at("availability").asDouble(), 1.0);
}

// ---------------------------------------------------------------------
// Appended: router outage-path coverage (overload-resilience PR).

TEST(Router, SimultaneousMultiReplicaOutageReroutesDeterministically)
{
    // Replicas 1 and 2 of 4 go dark over the same window. The
    // re-route order must be a pure function of the pick sequence:
    // round-robin advances its cursor past every dead replica and
    // lands on the survivors in rotation order, identically on every
    // replay.
    auto mkRouter = [] {
        return cluster::Router(
            cluster::RoutingPolicy::RoundRobin, 4, 0.01, 4,
            {{1, 100, 500}, {2, 100, 500}});
    };
    auto a = mkRouter();
    // Before the outage: full rotation.
    EXPECT_EQ(a.pick(1), 0u);
    EXPECT_EQ(a.pick(2), 1u);
    EXPECT_EQ(a.pick(3), 2u);
    EXPECT_EQ(a.pick(4), 3u);
    // Inside the outage: only survivors 0 and 3, in rotation order.
    EXPECT_EQ(a.pick(101), 0u);
    EXPECT_EQ(a.pick(102), 3u); // skipped 1 and 2
    EXPECT_EQ(a.pick(103), 0u);
    EXPECT_EQ(a.pick(104), 3u);
    EXPECT_EQ(a.reroutedCount(), 2u);
    // After the outage: the dead replicas rejoin the rotation.
    EXPECT_EQ(a.pick(500), 0u);
    EXPECT_EQ(a.pick(501), 1u);
    EXPECT_EQ(a.pick(502), 2u);

    // The whole routed stream replays identically.
    auto b = mkRouter();
    auto c = mkRouter();
    auto rb = testutil::routeFlat(b, 2e-3, 23, 1000);
    auto rc = testutil::routeFlat(c, 2e-3, 23, 1000);
    ASSERT_EQ(rb.traces.size(), rc.traces.size());
    for (std::size_t r = 0; r < rb.traces.size(); ++r)
        EXPECT_EQ(rb.traces[r], rc.traces[r]) << "replica " << r;
    EXPECT_EQ(rb.rerouted, rc.rerouted);
    EXPECT_EQ(rb.shed, rc.shed);
    // No trace contains a candidate inside its replica's dark window.
    for (std::size_t r : {std::size_t(1), std::size_t(2)})
        for (Tick t : rb.traces[r])
            EXPECT_TRUE(t < 100 || t >= 500)
                << "replica " << r << " got a candidate at " << t;
}

TEST(ClusterProperties, RequestConservationUnderMultiReplicaOutage)
{
    // admitted == retired + shed + in-flight-at-end, with a window
    // where most of the fleet is dark (so the shed path is live too).
    cluster::ClusterSpec cspec;
    cspec.replicas = 3;
    cspec.policy = cluster::RoutingPolicy::JoinShortestQueue;
    cspec.outages.push_back({0, 0.008, 0.012});
    cspec.outages.push_back({1, 0.008, 0.012});
    cspec.outages.push_back({2, 0.009, 0.011});

    auto opts = baseOptions();
    opts.jobs = 3;
    cluster::Cluster fleet(testutil::smallConfig(), cspec);
    auto r = fleet.run(
        0.8, opts, core::compileWorkload(testutil::smallConfig(), opts));

    EXPECT_GT(r.router_shed, 0u); // the full blackout really shed
    EXPECT_EQ(r.generated_candidates,
              r.router_shed +
                  [&] {
                      std::uint64_t assigned = 0;
                      for (const auto &rep : r.per_replica)
                          assigned += rep.assigned_candidates;
                      return assigned;
                  }());
    EXPECT_EQ(r.admitted_requests,
              r.retired_requests + r.inflight_requests);
}

} // namespace
} // namespace equinox
