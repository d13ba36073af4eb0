/**
 * @file
 * The fastpath suite: proves the steady-state fast-forward engine is
 * observationally equivalent to the cycle-accurate event loop.
 *
 * Three layers:
 *
 *  - EventQueue unit tests of the inline-dispatch predicate itself:
 *    events inline only when they are unambiguously next (open tick
 *    drained, heap empty or strictly later, within the run limit), the
 *    recursion depth cap falls back to a real schedule, and inlined
 *    dispatches count exactly like heap-popped ones.
 *
 *  - A seeded differential fuzz: N randomized accelerator configs
 *    (scheduling x batching policy, load level, arrival process,
 *    training on/off, active FaultPlans) each run twice on fresh
 *    accelerators -- fast_forward on vs off -- and must agree on the
 *    full result digest (every SimResult field incl. percentiles and
 *    the fault trace), the dispatch count, and every registered
 *    statistic (the MetricsSnapshot surface). The same comparison
 *    runs full size on the Equinox_500us preset with LSTM-2048.
 *
 *  - A cluster differential: a multi-replica run under an active
 *    ChaosPlan with the control plane engaged, fast-forwarded vs
 *    cycle-accurate, bit-identical cluster digests.
 *
 * A divergence here means an inline site is not actually in tail
 * position, or the canInline() predicate admitted an event that was
 * not unambiguously next. Fix the engine; never weaken the digests.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "cluster_digest.hh"
#include "common/random.hh"
#include "core/experiment.hh"
#include "core/presets.hh"
#include "fault/chaos_plan.hh"
#include "sim_digest.hh"
#include "stats/registry.hh"

namespace equinox
{
namespace
{

using sim::EventQueue;

// ---------------------------------------------------------------------
// EventQueue inline-dispatch unit tests
// ---------------------------------------------------------------------

TEST(FastForwardQueue, InlinesOnlyUnambiguouslyNextEvents)
{
    EventQueue q;
    q.setFastForward(true, 1000);

    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(10); });

    // From outside any dispatch: when=5 precedes the heap head (10),
    // strictly, so it inlines; when=15 does not.
    q.scheduleFast(5, [&] { order.push_back(5); });
    EXPECT_EQ(q.inlined(), 1u);
    EXPECT_EQ(q.now(), 5u);

    q.scheduleFast(15, [&] { order.push_back(15); });
    EXPECT_EQ(q.inlined(), 1u); // heap head at 10 <= 15: not inlined

    while (q.runOne()) {
    }
    EXPECT_EQ(order, (std::vector<int>{5, 10, 15}));
    EXPECT_EQ(q.dispatched(), 3u);
}

TEST(FastForwardQueue, ExactTieWithHeapHeadIsNotInlined)
{
    EventQueue q;
    q.setFastForward(true, 1000);
    std::vector<int> order;
    q.schedule(7, [&] { order.push_back(0); });
    // Same tick as the heap head: the earlier insertion seq must win,
    // so inline dispatch (which would run first) is forbidden.
    q.scheduleFast(7, [&] { order.push_back(1); });
    EXPECT_EQ(q.inlined(), 0u);
    while (q.runOne()) {
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(FastForwardQueue, OpenTickBacklogPreventsInline)
{
    EventQueue q;
    q.setFastForward(true, 1000);
    std::vector<int> order;
    q.schedule(5, [&] {
        // A same-tick sibling is still pending in the open-tick FIFO:
        // inlining t=6 here would run it before the sibling.
        q.scheduleFast(6, [&] { order.push_back(6); });
        order.push_back(50);
    });
    q.schedule(5, [&] { order.push_back(51); });
    while (q.runOne()) {
    }
    EXPECT_EQ(q.inlined(), 0u);
    EXPECT_EQ(order, (std::vector<int>{50, 51, 6}));
}

TEST(FastForwardQueue, RunLimitCapsInlineDispatch)
{
    EventQueue q;
    q.setFastForward(true, 100);
    bool ran = false;
    q.schedule(50, [&] {
        // Past the run limit: must go to the heap so the run loop can
        // apply its own stop condition.
        q.scheduleFast(150, [&] { ran = true; });
    });
    EXPECT_TRUE(q.runOne());
    EXPECT_EQ(q.inlined(), 0u);
    EXPECT_FALSE(ran);
    EXPECT_FALSE(q.empty());
}

TEST(FastForwardQueue, DepthCapFallsBackToHeap)
{
    EventQueue q;
    q.setFastForward(true, 1u << 20);
    int fired = 0;
    Tick last = 0;
    std::function<void()> chain = [&] {
        EXPECT_GE(q.now(), last);
        last = q.now();
        if (++fired < 300)
            q.scheduleFastIn(1, [&chain] { chain(); });
    };
    q.schedule(1, [&chain] { chain(); });
    while (q.runOne()) {
    }
    EXPECT_EQ(fired, 300);
    EXPECT_EQ(q.dispatched(), 300u);
    // Deep chains unwind through the heap every kMaxInlineDepth
    // frames, so some -- not all -- dispatches are inlined.
    EXPECT_GT(q.inlined(), 0u);
    EXPECT_LT(q.inlined(), 300u);
}

TEST(FastForwardQueue, DisabledQueueNeverInlines)
{
    EventQueue q;
    int fired = 0;
    q.scheduleFast(5, [&] { ++fired; });
    EXPECT_EQ(q.inlined(), 0u);
    EXPECT_EQ(fired, 0);
    while (q.runOne()) {
    }
    EXPECT_EQ(fired, 1);
}

// ---------------------------------------------------------------------
// Seeded differential fuzz: fast-forward vs cycle-accurate
// ---------------------------------------------------------------------

struct FuzzCase
{
    sim::SchedPolicy sched;
    sim::BatchPolicy batch;
    sim::ArrivalProcess arrivals;
    double load_frac;
    bool training;
    bool faults;
    std::uint64_t seed;
};

FuzzCase
caseFromSeed(std::uint64_t i)
{
    Rng rng(0xfa57f02d ^ (i * 0x9e3779b97f4a7c15ull));
    static const sim::SchedPolicy scheds[] = {
        sim::SchedPolicy::InferenceOnly, sim::SchedPolicy::Priority,
        sim::SchedPolicy::FairShare, sim::SchedPolicy::SoftwareBatch};
    FuzzCase c;
    c.sched = scheds[rng.uniformInt(0, 3)];
    c.batch = rng.uniformInt(0, 1) ? sim::BatchPolicy::Adaptive
                                   : sim::BatchPolicy::Static;
    c.arrivals = rng.uniformInt(0, 1) ? sim::ArrivalProcess::Poisson
                                      : sim::ArrivalProcess::Bursty;
    c.load_frac = 0.15 + 0.1 * static_cast<double>(rng.uniformInt(0, 8));
    c.training = rng.uniformInt(0, 1) != 0;
    c.faults = rng.uniformInt(0, 2) == 0; // ~1/3 of cases fault-laden
    c.seed = 1 + i * 37;
    return c;
}

struct CaseOutcome
{
    std::uint64_t digest;
    std::uint64_t events;
    std::uint64_t inlined;
    std::map<std::string, double> stats;
};

CaseOutcome
outcomeOf(sim::Accelerator &accel, const sim::SimResult &res)
{
    CaseOutcome out;
    out.digest = sim::resultDigest(res);
    out.events = res.events_dispatched;
    out.inlined = res.events_inlined;
    stats::StatRegistry reg;
    accel.registerStats(reg);
    reg.forEach([&](const std::string &name, double v,
                    const std::string &) { out.stats[name] = v; });
    return out;
}

/** Both engines agree on everything but the inlined tally. */
void
expectSameRun(const CaseOutcome &ff, const CaseOutcome &ref)
{
    EXPECT_EQ(ref.inlined, 0u);
    EXPECT_EQ(ff.digest, ref.digest);
    EXPECT_EQ(ff.events, ref.events);
    EXPECT_EQ(ff.stats, ref.stats);
}

CaseOutcome
runCase(const FuzzCase &c, bool fast_forward)
{
    auto cfg = testutil::smallConfig("fastpath-fuzz");
    cfg.sched_policy = c.sched;
    cfg.batch_policy = c.batch;
    workload::Compiler compiler(cfg);
    sim::Accelerator accel(cfg);
    accel.installInference(compiler.compileInference(testutil::tinyRnn()));
    if (c.training)
        accel.installTraining(
            compiler.compileTraining(testutil::tinyRnn(), 16));

    sim::RunSpec spec;
    spec.warmup_requests = 25;
    spec.measure_requests = 300;
    spec.seed = c.seed;
    spec.arrival_process = c.arrivals;
    spec.arrival_rate_per_s = c.load_frac * accel.maxRequestRate();
    spec.fast_forward = fast_forward;
    if (c.faults) {
        spec.faults = testutil::densePlan();
        spec.faults.seed = c.seed * 13 + 7;
    }
    return outcomeOf(accel, accel.run(spec));
}

TEST(FastForwardDifferential, RandomizedConfigsAreBitIdentical)
{
    const std::uint64_t kCases = 14;
    std::uint64_t cases_with_inlining = 0;
    for (std::uint64_t i = 0; i < kCases; ++i) {
        FuzzCase c = caseFromSeed(i);
        SCOPED_TRACE("case " + std::to_string(i) + ": sched=" +
                     sim::schedPolicyName(c.sched) + " batch=" +
                     sim::batchPolicyName(c.batch) + " load=" +
                     std::to_string(c.load_frac) +
                     (c.training ? " +train" : "") +
                     (c.faults ? " +faults" : ""));
        CaseOutcome ff = runCase(c, true);
        expectSameRun(ff, runCase(c, false));
        if (ff.inlined > 0)
            ++cases_with_inlining;
    }
    // The differential is vacuous if fast-forward never engages.
    EXPECT_GT(cases_with_inlining, kCases / 2);
}

TEST(FastForwardDifferential, GoldenScenarioInlinesAndMatches)
{
    // The golden-digest scenario itself, explicitly: FF off must equal
    // FF on must equal the recorded constant (the golden suite runs
    // with the build's default, so this nails both paths to it).
    auto ff = testutil::runScenario(sim::SchedPolicy::Priority, {});
    EXPECT_EQ(testutil::digestOf(ff), testutil::kGoldenFaultFreePriority);
    EXPECT_GT(ff.events_inlined, 0u);
}

TEST(FastForwardDifferential, ReferencePathReproducesGoldenDigest)
{
    // The reference path (spec.fast_forward = false, every event through
    // the heap) run on the golden scenario produces the golden digest.
    auto cfg = testutil::smallConfig();
    cfg.sched_policy = sim::SchedPolicy::Priority;
    workload::Compiler compiler(cfg);
    sim::Accelerator accel(cfg);
    accel.installInference(compiler.compileInference(testutil::tinyRnn()));
    accel.installTraining(
        compiler.compileTraining(testutil::tinyRnn(), 16));
    sim::RunSpec spec;
    spec.warmup_requests = 30;
    spec.measure_requests = 400;
    spec.seed = 17;
    spec.arrival_rate_per_s = 0.4 * accel.maxRequestRate();
    spec.fast_forward = false;
    auto res = accel.run(spec);
    EXPECT_EQ(res.events_inlined, 0u);
    EXPECT_EQ(testutil::digestOf(res),
              testutil::kGoldenFaultFreePriority);
}

// ---------------------------------------------------------------------
// Full-size differential: the Equinox_500us preset serving LSTM-2048
// ---------------------------------------------------------------------

CaseOutcome
runPreset(double load, bool training, bool fast_forward)
{
    static const auto cfg = core::presetConfig(core::Preset::Us500);
    static const auto inference =
        workload::Compiler(cfg).compileInference(
            workload::DnnModel::lstm2048());
    static const auto train = workload::Compiler(cfg).compileTraining(
        workload::DnnModel::lstm2048(), 128);
    sim::Accelerator accel(cfg);
    accel.installInference(inference);
    if (training)
        accel.installTraining(train);

    sim::RunSpec spec;
    spec.warmup_requests = 300;
    spec.measure_requests = 3000;
    spec.seed = 5;
    spec.arrival_rate_per_s = load * accel.maxRequestRate();
    spec.fast_forward = fast_forward;
    return outcomeOf(accel, accel.run(spec));
}

TEST(FastForwardDifferential, PresetLstm2048IsBitIdentical)
{
    struct Point
    {
        double load;
        bool training;
    };
    for (Point p : {Point{0.25, false}, Point{0.85, false},
                    Point{1.04, false}, Point{0.6, true}}) {
        SCOPED_TRACE("load " + std::to_string(p.load) +
                     (p.training ? " +train" : ""));
        CaseOutcome ff = runPreset(p.load, p.training, true);
        expectSameRun(ff, runPreset(p.load, p.training, false));
        EXPECT_GT(ff.inlined, 0u);
    }
}

// ---------------------------------------------------------------------
// Cluster differential under an active ChaosPlan
// ---------------------------------------------------------------------

cluster::ClusterPointResult
runChaosPoint(bool fast_forward, std::size_t jobs)
{
    constexpr double kHorizonS = 0.02;
    core::ExperimentOptions opts;
    opts.model = testutil::tinyRnn();
    opts.train_model = testutil::tinyRnn();
    opts.train_batch = 16;
    opts.warmup_requests = 30;
    opts.measure_requests = 1u << 30;
    opts.min_measure_s = kHorizonS;
    opts.seed = 17;
    opts.max_sim_s = kHorizonS;
    opts.jobs = jobs;
    opts.fast_forward = fast_forward;

    cluster::ClusterSpec cspec;
    cspec.replicas = 3;
    cspec.policy = cluster::RoutingPolicy::JoinShortestQueue;
    cspec.chaos = fault::chaosScenario("replica_churn", kHorizonS);

    cluster::Cluster fleet(testutil::smallConfig(), cspec);
    return fleet.run(0.7, opts, core::compileWorkload(
                                    testutil::smallConfig(), opts));
}

TEST(FastForwardCluster, ChaosDifferentialIsBitIdentical)
{
    auto ca = runChaosPoint(false, 1);
    auto ff = runChaosPoint(true, 1);
    EXPECT_EQ(testutil::digestOf(ff), testutil::digestOf(ca));
}

TEST(FastForwardCluster, FanOutPreservesFastForwardIdentity)
{
    auto serial = runChaosPoint(true, 1);
    auto fanout = runChaosPoint(true, 3);
    EXPECT_EQ(testutil::digestOf(serial), testutil::digestOf(fanout));
}

} // namespace
} // namespace equinox
