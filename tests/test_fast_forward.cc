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
 *    training on/off, active FaultPlans, a simulated-time horizon that
 *    cuts the run short) each run twice on fresh accelerators --
 *    fast_forward on vs off -- and must agree on the full result
 *    digest (every SimResult field incl. percentiles and the fault
 *    trace), every registered statistic (the MetricsSnapshot
 *    surface), and the dispatch count once the staging fills the
 *    fast-forwarded run landed without an event and the scheduling
 *    rounds it folded into inference spans are added back. A sweep
 *    puts each bound of a coalesced span on or inside one, and a
 *    traced run, which folds nothing, must issue every granule where
 *    the reference path does. The same comparison runs full size on
 *    the Equinox_500us preset with LSTM-2048.
 *
 *  - A cluster differential: a multi-replica run under an active
 *    ChaosPlan with the control plane engaged, fast-forwarded vs
 *    cycle-accurate, bit-identical cluster digests.
 *
 * A divergence here means an inline site is not actually in tail
 * position, the canInline() predicate admitted an event that was not
 * unambiguously next, or a span folded a round that could have decided
 * differently. Fix the engine; never weaken the digests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "cluster_digest.hh"
#include "common/random.hh"
#include "common/units.hh"
#include "core/experiment.hh"
#include "core/presets.hh"
#include "fault/chaos_plan.hh"
#include "sim/blocks/trace.hh"
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
    /** RunSpec::max_sim_s; 0 keeps the default, which never binds. */
    double horizon_s = 0.0;

    // Shapes that put coalesced-span bounds on or inside a span
    // (CoalescedSpanBoundsAreBitIdentical); the defaults leave them out.
    /** DRAM slow enough that staging fills land after the array idles. */
    bool slow_dram = false;
    /** Training steps with long SIMD epilogues: ready_at lands mid-step. */
    bool long_gaps = false;
    /** A second inference service, in a second context. */
    bool two_services = false;
    /**
     * AcceleratorConfig::spike_threshold_batches when nonzero. At 1 a
     * batch's first issue can end a spike.
     */
    std::uint32_t spike_threshold = 0;
    /** Service 0's arrival ticks; empty draws them from the rate. */
    std::vector<Tick> trace;
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
    std::uint64_t fills_deferred;
    std::uint64_t chunks_coalesced;
    std::uint64_t completed;
    std::map<std::string, double> stats;
};

CaseOutcome
outcomeOf(sim::Accelerator &accel, const sim::SimResult &res)
{
    CaseOutcome out;
    out.digest = sim::resultDigest(res);
    out.events = res.events_dispatched;
    out.inlined = res.events_inlined;
    out.fills_deferred = res.fills_deferred;
    out.chunks_coalesced = res.chunks_coalesced;
    out.completed = res.completed_requests;
    stats::StatRegistry reg;
    accel.registerStats(reg);
    reg.forEach([&](const std::string &name, double v,
                    const std::string &) { out.stats[name] = v; });
    return out;
}

/**
 * Both engines agree on everything but the inlined tally, the staging
 * fills the fast-forwarded run landed without an event and the
 * scheduling rounds it folded into inference spans: the reference path
 * dispatches every fill and every granule's completion, and each
 * deferred fill or folded round stands for exactly one of its events.
 */
void
expectSameRun(const CaseOutcome &ff, const CaseOutcome &ref)
{
    EXPECT_EQ(ref.inlined, 0u);
    EXPECT_EQ(ref.fills_deferred, 0u);
    EXPECT_EQ(ref.chunks_coalesced, 0u);
    EXPECT_EQ(ff.digest, ref.digest);
    EXPECT_EQ(ff.events + ff.fills_deferred + ff.chunks_coalesced,
              ref.events);
    EXPECT_EQ(ff.stats, ref.stats);
}

/** A second service for a second hardware context: shorter steps. */
workload::DnnModel
shortRnn()
{
    workload::DnnModel model = testutil::tinyRnn();
    model.name = "short";
    model.rnn.hidden = 48;
    model.rnn.steps = 3;
    return model;
}

/**
 * Run @p c; with @p issues set, attach a trace sink and record every
 * inference chunk issue.
 */
CaseOutcome
runCase(const FuzzCase &c, bool fast_forward,
        std::vector<sim::TraceEvent> *issues = nullptr)
{
    auto cfg = testutil::smallConfig("fastpath-fuzz");
    cfg.sched_policy = c.sched;
    cfg.batch_policy = c.batch;
    if (c.slow_dram)
        cfg.dram.bandwidth_bytes_per_s = 3e9;
    if (c.spike_threshold)
        cfg.spike_threshold_batches = c.spike_threshold;
    workload::Compiler compiler(cfg);
    sim::Accelerator accel(cfg);
    accel.installInference(compiler.compileInference(testutil::tinyRnn()));
    if (c.two_services)
        accel.installInference(compiler.compileInference(shortRnn()));
    if (c.training) {
        workload::DnnModel train = testutil::tinyRnn();
        if (c.long_gaps)
            train.rnn.simd_passes = 24.0;
        accel.installTraining(compiler.compileTraining(train, 16));
    }
    sim::VectorTraceSink sink;
    if (issues)
        accel.setTraceSink(&sink);

    sim::RunSpec spec;
    spec.warmup_requests = 25;
    spec.measure_requests = 300;
    spec.seed = c.seed;
    spec.arrival_process = c.arrivals;
    spec.arrival_rate_per_s = c.load_frac * accel.maxRequestRate();
    if (c.two_services) {
        spec.arrival_rates = {c.load_frac / 2 * accel.maxRequestRate(0),
                              c.load_frac / 2 * accel.maxRequestRate(1)};
    }
    spec.arrival_trace_ticks = c.trace;
    spec.fast_forward = fast_forward;
    if (c.horizon_s > 0.0)
        spec.max_sim_s = c.horizon_s;
    if (c.faults) {
        spec.faults = testutil::densePlan();
        spec.faults.seed = c.seed * 13 + 7;
    }
    CaseOutcome out = outcomeOf(accel, accel.run(spec));
    if (issues) {
        for (const auto &ev : sink.events()) {
            if (ev.type == sim::TraceEventType::InferenceChunkIssue)
                issues->push_back(ev);
        }
    }
    return out;
}

/**
 * Training is installed and may issue (the inference-only policy never
 * issues it, so its staging fills all land before any MMU work), and
 * no fault plan is active: operands stream while the array computes,
 * so the fast-forwarded run defers staging fills.
 */
bool
defersFills(const FuzzCase &c)
{
    return c.training && !c.faults &&
           c.sched != sim::SchedPolicy::InferenceOnly;
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
        if (defersFills(c)) {
            EXPECT_GT(ff.fills_deferred, 0u);
        }
        // Inference granules interleave with a resident training
        // context, and without a fault plan the run folds the ones
        // issued back to back. Fair share is the exception on this
        // model: it hands training every boundary at which training is
        // ready, and training's dependence gap (40 cycles) is shorter
        // than an inference granule (64), so no two inference granules
        // run back to back (CoalescedSpanBoundsAreBitIdentical folds
        // fair-share spans on slow DRAM).
        if (c.training && !c.faults &&
            c.sched != sim::SchedPolicy::FairShare) {
            EXPECT_GT(ff.chunks_coalesced, 0u);
        }
    }
    // The differential is vacuous if fast-forward never engages.
    EXPECT_GT(cases_with_inlining, kCases / 2);
}

TEST(FastForwardDifferential, HorizonCutTrainingRunsAreBitIdentical)
{
    // Training co-located under a simulated-time horizon far shorter
    // than the measured window needs: the run ends on the first event
    // past max_sim_s, with staging fills still streaming, so fills
    // land past the horizon (they stay events) as well as before it.
    static const sim::SchedPolicy scheds[] = {
        sim::SchedPolicy::Priority, sim::SchedPolicy::FairShare,
        sim::SchedPolicy::SoftwareBatch};
    const std::uint64_t kCases = 48;
    std::uint64_t cases_deferring = 0;
    for (std::uint64_t i = 0; i < kCases; ++i) {
        FuzzCase c = caseFromSeed(100 + i);
        c.sched = scheds[i % 3];
        c.load_frac = 0.3 + 0.1 * static_cast<double>(i % 2);
        c.training = true;
        c.faults = i % 8 == 7;
        c.horizon_s = 2e-4 + 4.1e-6 * static_cast<double>(i);
        SCOPED_TRACE("case " + std::to_string(i) + ": sched=" +
                     sim::schedPolicyName(c.sched) + " horizon=" +
                     std::to_string(c.horizon_s) +
                     (c.faults ? " +faults" : ""));
        CaseOutcome ff = runCase(c, true);
        CaseOutcome ref = runCase(c, false);
        expectSameRun(ff, ref);
        // The horizon, not the request count, ended the run.
        EXPECT_LT(ref.completed, 300u);
        if (ff.fills_deferred > 0)
            ++cases_deferring;
    }
    // Cut this short, a run can end before any fill lands while the
    // array is busy, so not every case defers; most do.
    EXPECT_GT(cases_deferring, kCases * 3 / 4);
}

TEST(FastForwardDifferential, TrainingOnlyHorizonSweepIsBitIdentical)
{
    // Training alone, its horizon swept in 8-tick steps across more
    // than one training chunk: fills land in a short window after each
    // chunk issue, so in some of these runs the first event past
    // max_sim_s -- the one the run ends on -- is a fill landing, which
    // must therefore stay an event.
    for (std::uint64_t k = 0; k < 128; ++k) {
        FuzzCase c = caseFromSeed(300);
        c.sched = sim::SchedPolicy::Priority;
        c.load_frac = 0.0;
        c.training = true;
        c.faults = false;
        c.horizon_s = 2.4e-4 + 8e-8 * static_cast<double>(k);
        SCOPED_TRACE("horizon " + std::to_string(c.horizon_s));
        CaseOutcome ff = runCase(c, true);
        expectSameRun(ff, runCase(c, false));
    }
}

TEST(FastForwardDifferential, GoldenScenarioInlinesAndMatches)
{
    // The golden-digest scenario itself, explicitly: FF off must equal
    // FF on must equal the recorded constant (the golden suite runs
    // with the build's default, so this nails both paths to it).
    auto ff = testutil::runScenario(sim::SchedPolicy::Priority, {});
    EXPECT_EQ(testutil::digestOf(ff), testutil::kGoldenFaultFreePriority);
    EXPECT_GT(ff.events_inlined, 0u);
    EXPECT_GT(ff.fills_deferred, 0u);
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
    EXPECT_EQ(res.fills_deferred, 0u);
    EXPECT_EQ(testutil::digestOf(res),
              testutil::kGoldenFaultFreePriority);
}

// ---------------------------------------------------------------------
// Arrivals on staging-fill landings
// ---------------------------------------------------------------------

/**
 * A training run fed the candidate trace @p trace, on DRAM slow enough
 * that staging fills issued while the array computes land long after
 * it has gone idle waiting for them. With @p issues set, records the
 * ticks of every training chunk issue.
 */
CaseOutcome
runSlowStaging(const std::vector<Tick> &trace, bool fast_forward,
               std::vector<Tick> *issues = nullptr)
{
    auto cfg = testutil::smallConfig("fill-ties");
    cfg.sched_policy = sim::SchedPolicy::Priority;
    cfg.batch_policy = sim::BatchPolicy::Static;
    cfg.dram.bandwidth_bytes_per_s = 3e9;
    workload::Compiler compiler(cfg);
    sim::Accelerator accel(cfg);
    accel.installInference(compiler.compileInference(testutil::tinyRnn()));
    accel.installTraining(compiler.compileTraining(testutil::tinyRnn(), 16));
    sim::VectorTraceSink sink;
    if (issues)
        accel.setTraceSink(&sink);
    sim::RunSpec spec;
    spec.warmup_requests = 16;
    spec.measure_requests = 160;
    spec.max_sim_s = 4e-3;
    spec.seed = 3;
    spec.arrival_trace_ticks = trace;
    spec.fast_forward = fast_forward;
    CaseOutcome out = outcomeOf(accel, accel.run(spec));
    if (issues) {
        for (const auto &ev : sink.events()) {
            if (ev.type == sim::TraceEventType::TrainChunkIssue)
                issues->push_back(ev.tick);
        }
    }
    return out;
}

TEST(FastForwardDifferential, ArrivalsOnStagingFillLandingsAreBitIdentical)
{
    // A training chunk that issues after an idle spell was waiting for
    // the staging fill that landed at that tick. The fast-forwarded run
    // deferred that fill while the array was busy and made it an event
    // again, under the seq reserved at its issue, when the array went
    // idle. Each case puts an arrival exactly on such a tick, with the
    // arrival before it -- the one that schedules it -- moved back to
    // while the array was still busy: the arrival's seq then falls
    // between the fill's issue and its materialization, and the fill
    // must still land first, as on the reference path, where it was an
    // event all along. Landing second costs the arrival a scheduling
    // round of its own, which the compared statistics count.
    constexpr Tick kLead = 8000;
    std::uint64_t cases = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        std::vector<Tick> base;
        ArrivalStream stream(1e-3, seed, 0, 400000);
        for (Tick t = 0; stream.next(t);)
            base.push_back(t);
        std::vector<Tick> issues;
        runSlowStaging(base, false, &issues);
        ASSERT_GT(issues.size(), 140u);
        for (std::size_t i = 100; i < 140; ++i) {
            const Tick landing = issues[i];
            std::vector<Tick> trace;
            for (Tick t : base) {
                if (t + kLead < landing || t >= landing)
                    trace.push_back(t);
            }
            for (Tick t : {landing - kLead, landing})
                trace.insert(std::upper_bound(trace.begin(), trace.end(), t),
                             t);
            SCOPED_TRACE(::testing::Message() << "seed " << seed
                                              << ", arrival at tick "
                                              << landing);
            CaseOutcome ff = runSlowStaging(trace, true);
            expectSameRun(ff, runSlowStaging(trace, false));
            cases += ff.fills_deferred > 0;
        }
    }
    // A case counts when its fast-forwarded run landed some fill
    // without an event (about 140 of the 320 do): the sweep must not go
    // vacuous because deferral stopped.
    EXPECT_GT(cases, 100u);
}

// ---------------------------------------------------------------------
// Coalesced inference spans: the bounds that end a span
// ---------------------------------------------------------------------

/**
 * A co-located training run on adaptive batching, the shape every
 * span-bound case starts from.
 */
FuzzCase
spanCase(sim::SchedPolicy sched)
{
    FuzzCase c;
    c.sched = sched;
    c.batch = sim::BatchPolicy::Adaptive;
    c.arrivals = sim::ArrivalProcess::Poisson;
    c.load_frac = 0.6;
    c.training = true;
    c.faults = false;
    c.seed = 1;
    return c;
}

std::string
describe(const FuzzCase &c)
{
    return std::string("sched=") + sim::schedPolicyName(c.sched) +
           (c.slow_dram ? " +slow-dram" : "") +
           (c.long_gaps ? " +long-gaps" : "") +
           (c.two_services ? " +two-services" : "") +
           (c.spike_threshold ? " spike-threshold=" +
                                    std::to_string(c.spike_threshold)
                              : "") +
           " load=" + std::to_string(c.load_frac) + " seed=" +
           std::to_string(c.seed) + " horizon=" +
           std::to_string(c.horizon_s) +
           (c.trace.empty() ? "" : " +trace");
}

/**
 * Granule boundaries inside a step: the end ticks of traced inference
 * issues that the same context's next granule issues at.
 */
std::vector<Tick>
innerBoundaries(const std::vector<sim::TraceEvent> &issues)
{
    std::vector<Tick> out;
    for (std::size_t i = 0; i + 1 < issues.size(); ++i) {
        const Tick end = issues[i].tick + issues[i].a;
        if (issues[i + 1].tick == end && issues[i + 1].ctx == issues[i].ctx &&
            issues[i + 1].b == issues[i].b)
            out.push_back(end);
    }
    return out;
}

TEST(FastForwardDifferential, CoalescedSpanBoundsAreBitIdentical)
{
    // A span folds the rounds at a batch's granule boundaries up to the
    // first tick at which a round could decide differently. Each part
    // below puts one of the bounds on, or inside, a span, under every
    // scheduling policy: a wrong bound shows as a digest or stat-map
    // difference against the reference path, which issues every
    // granule from its own round.
    static const sim::SchedPolicy scheds[] = {
        sim::SchedPolicy::InferenceOnly, sim::SchedPolicy::Priority,
        sim::SchedPolicy::FairShare, sim::SchedPolicy::SoftwareBatch};
    std::map<sim::SchedPolicy, std::uint64_t> coalesced;

    // 1. Free-running arrivals: staging fills landing mid-span (slow
    //    DRAM), training's ready_at inside a step (long epilogues) and
    //    the other context's batches becoming ready mid-step.
    for (sim::SchedPolicy sched : scheds) {
        for (unsigned variant = 0; variant < 8; ++variant) {
            FuzzCase c = spanCase(sched);
            c.slow_dram = variant & 1;
            c.long_gaps = variant & 2;
            c.two_services = variant & 4;
            c.load_frac = 0.45 + 0.1 * static_cast<double>(variant % 3);
            c.seed = 11 + variant;
            SCOPED_TRACE(describe(c));
            CaseOutcome ff = runCase(c, true);
            expectSameRun(ff, runCase(c, false));
            coalesced[sched] += ff.chunks_coalesced;
        }
    }
    for (sim::SchedPolicy sched : scheds) {
        SCOPED_TRACE(sim::schedPolicyName(sched));
        EXPECT_GT(coalesced[sched], 0u);
    }

    // 2. A batch's first issue ends the span it starts: it lowers the
    //    unstarted-batch count, so with a spike threshold of one batch
    //    the next round's priority policy may stop vetoing training.
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        FuzzCase c = spanCase(sim::SchedPolicy::Priority);
        c.spike_threshold = 1;
        c.load_frac = 0.05 * static_cast<double>(seed);
        c.seed = seed;
        SCOPED_TRACE(describe(c));
        expectSameRun(runCase(c, true), runCase(c, false));
    }

    // 3. max_sim_s cutting a span: the horizon one tick before, on and
    //    one tick after a granule boundary inside a step. The run ends
    //    on the first event past the horizon, so the round there must
    //    not be folded.
    for (sim::SchedPolicy sched : scheds) {
        FuzzCase c = spanCase(sched);
        c.slow_dram = true;
        c.seed = 5;
        std::vector<sim::TraceEvent> issues;
        runCase(c, false, &issues);
        const std::vector<Tick> bounds = innerBoundaries(issues);
        ASSERT_GT(bounds.size(), 200u);
        for (std::size_t i = bounds.size() / 2; i < bounds.size();
             i += bounds.size() / 12) {
            for (Tick max_ticks : {bounds[i] - 1, bounds[i], bounds[i] + 1}) {
                // secondsToCycles rounds up: half a cycle below lands
                // exactly on max_ticks.
                c.horizon_s = (static_cast<double>(max_ticks) - 0.5) /
                              testutil::smallConfig().frequency_hz;
                SCOPED_TRACE(describe(c));
                expectSameRun(runCase(c, true), runCase(c, false));
            }
        }
    }

    // 4. Arrivals and batch timeouts on a boundary tick: an arrival at
    //    the boundary, and one a batch timeout earlier, whose timeout
    //    fires on the boundary when it is the oldest pending request.
    //    The run up to the boundary is the base run's, so the boundary
    //    stays one.
    const auto cfg = testutil::smallConfig();
    sim::Accelerator probe(cfg);
    const auto service =
        workload::Compiler(cfg).compileInference(testutil::tinyRnn());
    const Tick timeout = units::secondsToCycles(
        service.service_time_s * cfg.batch_timeout_mult, cfg.frequency_hz);
    probe.installInference(service);
    for (sim::SchedPolicy sched : scheds) {
        FuzzCase c = spanCase(sched);
        c.slow_dram = sched == sim::SchedPolicy::FairShare;
        c.load_frac = 0.5;
        ArrivalStream stream(c.load_frac * probe.maxRequestRate(0) /
                                 cfg.frequency_hz,
                             7, 0, 300000);
        for (Tick t = 0; stream.next(t);)
            c.trace.push_back(t);
        std::vector<sim::TraceEvent> issues;
        runCase(c, false, &issues);
        const std::vector<Tick> bounds = innerBoundaries(issues);
        ASSERT_GT(bounds.size(), 100u);
        const std::vector<Tick> base = c.trace;
        for (std::size_t i = 40; i < 100; i += 4) {
            const Tick at = bounds[i];
            c.trace = base;
            for (Tick t : {at - timeout, at})
                c.trace.insert(
                    std::upper_bound(c.trace.begin(), c.trace.end(), t), t);
            SCOPED_TRACE(describe(c) + " boundary " + std::to_string(at));
            expectSameRun(runCase(c, true), runCase(c, false));
        }
    }
}

TEST(FastForwardDifferential, TraceSinkSeesEveryInferenceGranule)
{
    // A trace sink records one InferenceChunkIssue per granule, so a
    // traced run folds nothing: its issues (tick, granule, step) and
    // digest are the reference path's, and the untraced run that does
    // fold lands on the same digest.
    for (unsigned variant = 0; variant < 3; ++variant) {
        FuzzCase c = spanCase(variant == 0   ? sim::SchedPolicy::Priority
                              : variant == 1 ? sim::SchedPolicy::FairShare
                                             : sim::SchedPolicy::SoftwareBatch);
        c.slow_dram = variant == 1;
        c.long_gaps = variant == 1;
        c.two_services = variant == 2;
        SCOPED_TRACE(describe(c));
        std::vector<sim::TraceEvent> ff_issues;
        std::vector<sim::TraceEvent> ref_issues;
        CaseOutcome ff = runCase(c, true, &ff_issues);
        CaseOutcome ref = runCase(c, false, &ref_issues);
        EXPECT_EQ(ff.chunks_coalesced, 0u);
        expectSameRun(ff, ref);
        ASSERT_EQ(ff_issues.size(), ref_issues.size());
        for (std::size_t i = 0; i < ff_issues.size(); ++i) {
            SCOPED_TRACE("issue " + std::to_string(i));
            EXPECT_EQ(ff_issues[i].tick, ref_issues[i].tick);
            EXPECT_EQ(ff_issues[i].ctx, ref_issues[i].ctx);
            EXPECT_EQ(ff_issues[i].a, ref_issues[i].a);
            EXPECT_EQ(ff_issues[i].b, ref_issues[i].b);
        }
        CaseOutcome untraced = runCase(c, true);
        EXPECT_GT(untraced.chunks_coalesced, 0u);
        EXPECT_EQ(untraced.digest, ref.digest);
    }
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
        if (p.training) {
            EXPECT_GT(ff.fills_deferred, 0u);
            EXPECT_GT(ff.chunks_coalesced, 0u);
        }
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
