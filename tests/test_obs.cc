/**
 * @file
 * Conformance suite for the observability/export layer (src/obs/):
 *
 *  - the JSON value model round-trips every document it can serialize,
 *    deterministically (sorted keys, kind-preserving numbers);
 *  - ChromeTraceSink emits well-formed Chrome trace_event JSON with
 *    per-track monotone timestamps;
 *  - MetricsSnapshot documents parse back, and a snapshot built from a
 *    jobs=4 sweep is byte-identical to one built from the same sweep
 *    at jobs=1;
 *  - observability is perturbation-free: the golden refactor-identity
 *    digests are unchanged with a trace sink installed;
 *  - LatencyProbe reproduces the SimResult latency percentiles exactly
 *    from RequestRetired events alone.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/chrome_trace.hh"
#include "obs/json.hh"
#include "obs/latency_probe.hh"
#include "obs/metrics_snapshot.hh"
#include "sim/blocks/trace.hh"
#include "sim_digest.hh"
#include "stats/cycle_breakdown.hh"
#include "stats/fault_stats.hh"
#include "stats/registry.hh"

namespace equinox
{
namespace obs
{
namespace
{

using testutil::digestOf;

/** FNV-1a over a serialized document (byte-identity checks). */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(static_cast<bool>(in)) << "cannot open " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// ---------------------------------------------------------------------
// Json value model

TEST(ObsJson, BuildsAndAccessesValues)
{
    Json doc = Json::object();
    doc["flag"] = true;
    doc["count"] = std::uint64_t{42};
    doc["ratio"] = 0.5;
    doc["name"] = "equinox";
    doc["list"].append(1);
    doc["list"].append(2.5);
    doc["nested"]["deep"] = std::int64_t{-7};

    EXPECT_TRUE(doc.isObject());
    EXPECT_TRUE(doc.at("flag").asBool());
    EXPECT_EQ(doc.at("count").asInt(), 42);
    EXPECT_DOUBLE_EQ(doc.at("ratio").asDouble(), 0.5);
    EXPECT_EQ(doc.at("name").asString(), "equinox");
    EXPECT_EQ(doc.at("list").size(), 2u);
    EXPECT_EQ(doc.at("list").at(0).asInt(), 1);
    EXPECT_EQ(doc.at("nested").at("deep").asInt(), -7);
    EXPECT_EQ(doc.find("absent"), nullptr);
}

TEST(ObsJson, DumpIsDeterministicAndSorted)
{
    Json a = Json::object();
    a["zeta"] = 1;
    a["alpha"] = 2;
    Json b = Json::object();
    b["alpha"] = 2;
    b["zeta"] = 1;
    EXPECT_EQ(a.dump(), b.dump());
    // Keys serialize in sorted order regardless of insertion order.
    EXPECT_LT(a.dump().find("alpha"), a.dump().find("zeta"));
}

TEST(ObsJson, RoundTripPreservesBytesAndKinds)
{
    Json doc = Json::object();
    doc["int"] = std::int64_t{-123456789012345};
    doc["whole_double"] = 3.0; // must stay a double: "3.0"
    doc["tiny"] = 6.25e-9;
    doc["neg"] = -0.125;
    doc["str"] = std::string("quote\" slash\\ nl\n tab\t ctl\x01 end");
    doc["null"] = Json();
    doc["arr"].append(false);
    doc["arr"].append(Json::object());

    std::string text = doc.dump(2);
    std::string error;
    auto back = Json::parse(text, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->dump(2), text);
    // Kind preserved: a whole double re-parses as Double, not Int.
    EXPECT_EQ(back->at("whole_double").kind(), Json::Kind::Double);
    EXPECT_EQ(back->at("int").kind(), Json::Kind::Int);
    // Compact form round-trips too.
    auto compact = Json::parse(doc.dump(-1), &error);
    ASSERT_TRUE(compact.has_value()) << error;
    EXPECT_EQ(compact->dump(-1), doc.dump(-1));
}

TEST(ObsJson, NonFiniteDoublesSerializeAsValidJson)
{
    Json doc = Json::object();
    doc["nan"] = std::nan("");
    doc["inf"] = std::numeric_limits<double>::infinity();
    std::string error;
    auto back = Json::parse(doc.dump(), &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_TRUE(back->at("nan").isNull());
    EXPECT_TRUE(std::isinf(back->at("inf").asDouble()));
}

TEST(ObsJson, RejectsMalformedInput)
{
    const char *bad[] = {
        "",        "{",           "[1 2]",    "\"unterminated",
        "nul",     "{\"a\":}",    "[1,]",     "{\"a\":1,}",
        "1 2",     "{\"a\" 1}",   "tru",      "\"\\",
        "\"\\u12", "\"\\u12gz\"", "\"\\q\"",  "{\"a\":1 \"b\":2}",
        "99999999999999999999",   "1.2.3",    "-e",
    };
    for (const char *text : bad) {
        std::string error;
        EXPECT_FALSE(Json::parse(text, &error).has_value())
            << "accepted: " << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(ObsJson, NumericKindsConvertAtTheBoundaries)
{
    // Counters beyond int64 keep serializing, as a double.
    Json big(std::uint64_t{0xffffffffffffffffull});
    EXPECT_EQ(big.kind(), Json::Kind::Double);
    EXPECT_DOUBLE_EQ(big.asDouble(), 1.8446744073709552e19);
    EXPECT_EQ(Json(std::uint64_t{7}).kind(), Json::Kind::Int);

    // Numeric accessors coerce across Int/Double instead of asserting.
    EXPECT_EQ(Json(2.75).asInt(), 2);
    EXPECT_DOUBLE_EQ(Json(std::int64_t{-3}).asDouble(), -3.0);

    // size() counts object members; scalars have size 0; find() on a
    // non-object is an absent lookup, not an error.
    Json obj = Json::object();
    obj["a"] = 1;
    obj["b"] = 2;
    EXPECT_EQ(obj.size(), 2u);
    EXPECT_EQ(obj.members().size(), 2u);
    EXPECT_EQ(Json(1.0).size(), 0u);
    EXPECT_EQ(Json(5).find("x"), nullptr);
}

TEST(ObsJson, ParsesFullEscapeRepertoire)
{
    // The parser accepts every escape JSON allows, including the ones
    // our own serializer never emits (\/, \b, \f, multi-byte \u).
    std::string error;
    auto v = Json::parse(
        "\"a\\/b\\b\\f\\r\\n\\t\\u0041\\u00e9\\u20AC\"", &error);
    ASSERT_TRUE(v.has_value()) << error;
    EXPECT_EQ(v->asString(), "a/b\b\f\r\n\tA\xc3\xa9\xe2\x82\xac");

    // \r in a string survives a dump/parse round trip.
    Json doc("line\rfeed");
    auto back = Json::parse(doc.dump(-1), &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->asString(), "line\rfeed");

    // Empty arrays serialize compactly and parse back empty.
    EXPECT_EQ(Json::array().dump(-1), "[]");
    auto arr = Json::parse(" [ ] ", &error);
    ASSERT_TRUE(arr.has_value()) << error;
    EXPECT_TRUE(arr->isArray());
    EXPECT_EQ(arr->size(), 0u);
}

// ---------------------------------------------------------------------
// ChromeTraceSink

TEST(ObsChromeTrace, EmitsWellFormedTraceWithMonotoneTracks)
{
    ChromeTraceSink sink(units::MHz(100));
    auto res = testutil::runScenario(sim::SchedPolicy::Priority, {},
                                     &sink);
    ASSERT_GT(sink.total(), 0u);
    EXPECT_EQ(sink.dropped(), 0u);

    std::ostringstream os;
    sink.write(os);
    std::string error;
    auto doc = Json::parse(os.str(), &error);
    ASSERT_TRUE(doc.has_value()) << error;

    const Json &rows = doc->at("traceEvents");
    ASSERT_TRUE(rows.isArray());
    ASSERT_GT(rows.size(), 1u);
    EXPECT_EQ(doc->at("otherData").at("events_total").asInt(),
              static_cast<std::int64_t>(sink.total()));

    // Every event row carries the required keys; instant-event
    // timestamps are monotone non-decreasing per (pid, tid) track.
    std::map<std::pair<std::int64_t, std::int64_t>, double> last_ts;
    std::size_t metadata = 0, instants = 0, counters = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Json &ev = rows.at(i);
        const std::string &ph = ev.at("ph").asString();
        ASSERT_NE(ev.find("name"), nullptr);
        ASSERT_NE(ev.find("pid"), nullptr);
        if (ph == "M") {
            ++metadata;
            continue;
        }
        ASSERT_NE(ev.find("ts"), nullptr);
        EXPECT_GE(ev.at("ts").asDouble(), 0.0);
        if (ph == "C") {
            ++counters;
            continue;
        }
        ASSERT_EQ(ph, "i");
        ++instants;
        auto track = std::make_pair(ev.at("pid").asInt(),
                                    ev.at("tid").asInt());
        double ts = ev.at("ts").asDouble();
        auto it = last_ts.find(track);
        if (it != last_ts.end()) {
            EXPECT_GE(ts, it->second) << "track tid "
                                      << track.second << " row " << i;
        }
        last_ts[track] = ts;
    }
    // process_name + one thread_name per track seen.
    EXPECT_EQ(metadata, 1 + last_ts.size());
    EXPECT_EQ(instants, sink.total());
    EXPECT_GT(counters, 0u);

    // The traced run itself is undisturbed (golden digest re-checked
    // exhaustively in ObsIdentity below; cheap sanity here).
    EXPECT_EQ(digestOf(res), testutil::kGoldenFaultFreePriority);
}

TEST(ObsChromeTrace, BoundedBufferCountsDrops)
{
    ChromeTraceSink sink(units::MHz(100), 4);
    sim::TraceEvent ev;
    ev.block = "test";
    for (Tick t = 0; t < 10; ++t) {
        ev.tick = t;
        sink.record(ev);
    }
    EXPECT_EQ(sink.total(), 10u);
    EXPECT_EQ(sink.dropped(), 6u);
    EXPECT_EQ(sink.toJson().at("traceEvents").size(), 1u + 1u + 4u + 4u)
        << "process meta + thread meta + 4 instants + 4 counters";
    sink.clear();
    EXPECT_EQ(sink.total(), 0u);
}

TEST(ObsChromeTrace, MultiSinkFansOutToEverySink)
{
    ChromeTraceSink a(units::MHz(100));
    sim::VectorTraceSink b;
    MultiSink fan;
    fan.add(&a);
    fan.add(&b);
    sim::TraceEvent ev;
    ev.block = "x";
    fan.record(ev);
    fan.record(ev);
    EXPECT_EQ(a.total(), 2u);
    EXPECT_EQ(b.total(), 2u);
}

TEST(ObsChromeTrace, WriteToUnwritablePathFails)
{
    ChromeTraceSink sink(units::MHz(100));
    EXPECT_FALSE(sink.writeTo("no_such_dir/sub/trace.json"));
    MetricsSnapshot snap;
    EXPECT_FALSE(snap.writeTo("no_such_dir/sub/metrics.json"));
}

// ---------------------------------------------------------------------
// Observability must not perturb simulation

TEST(ObsIdentity, GoldenDigestsUnchangedWithTraceSinkInstalled)
{
    // The exact golden constants of test_refactor_identity, re-run with
    // a ChromeTraceSink+LatencyProbe fan-out installed: installing
    // observability must not move one bit of any result.
    ChromeTraceSink trace(units::MHz(100));
    LatencyProbe probe;
    MultiSink fan;
    fan.add(&trace);
    fan.add(&probe);

    auto fault_free =
        testutil::runScenario(sim::SchedPolicy::Priority, {}, &fan);
    EXPECT_EQ(digestOf(fault_free), testutil::kGoldenFaultFreePriority);

    auto fair = testutil::runScenario(sim::SchedPolicy::FairShare, {},
                                      &fan);
    EXPECT_EQ(digestOf(fair), testutil::kGoldenFaultFreeFairShare);

    auto faulty = testutil::runScenario(sim::SchedPolicy::Priority,
                                        testutil::densePlan(), &fan);
    EXPECT_EQ(digestOf(faulty), testutil::kGoldenActiveFaultPlan);

    auto training = testutil::runTrainingOnly(&fan);
    EXPECT_EQ(digestOf(training), testutil::kGoldenTrainingOnly);

    EXPECT_GT(trace.total(), 0u);
}

TEST(ObsIdentity, SinkFreeRunTakesTheZeroCostEmitPath)
{
    // With no sink installed, SimBlock::emit() must bail on its inline
    // null check before building a TraceEvent: the process-global
    // delivery counter (bumped on the slow path only) cannot move. A
    // regression here means every block event in every untraced run --
    // i.e. all of them -- pays for observability nobody asked for.
    const std::uint64_t before = sim::traceRecordsDelivered();
    auto untraced =
        testutil::runScenario(sim::SchedPolicy::Priority, {}, nullptr);
    EXPECT_EQ(digestOf(untraced), testutil::kGoldenFaultFreePriority);
    EXPECT_EQ(sim::traceRecordsDelivered(), before);

    // Control: the same run with a sink drives the slow path.
    ChromeTraceSink trace(units::MHz(100));
    auto traced =
        testutil::runScenario(sim::SchedPolicy::Priority, {}, &trace);
    EXPECT_EQ(digestOf(traced), testutil::kGoldenFaultFreePriority);
    EXPECT_GT(sim::traceRecordsDelivered(), before);
}

TEST(ObsIdentity, SweepWithSinkMatchesUntracedSweep)
{
    core::ExperimentOptions opts;
    opts.model = testutil::tinyRnn();
    opts.train_model = testutil::tinyRnn();
    opts.train_batch = 16;
    opts.warmup_requests = 30;
    opts.measure_requests = 300;
    opts.seed = 17;
    const std::vector<double> loads = {0.1, 0.4, 0.7};
    auto cfg = testutil::smallConfig("obs-sweep");

    auto untraced = core::runLoadSweep(cfg, loads, opts);

    // jobs=4 + sink: the engine degrades to serial, results identical.
    ChromeTraceSink sink(cfg.frequency_hz);
    opts.jobs = 4;
    opts.trace_sink = &sink;
    auto traced = core::runLoadSweep(cfg, loads, opts);

    EXPECT_GT(sink.total(), 0u);
    EXPECT_EQ(digestOf(untraced), digestOf(traced));
}

// ---------------------------------------------------------------------
// LatencyProbe

TEST(ObsLatencyProbe, ReproducesSimResultPercentilesExactly)
{
    LatencyProbe probe;
    auto res = testutil::runScenario(sim::SchedPolicy::Priority, {},
                                     &probe);

    // Same samples, same fold order, same cycle->seconds conversion:
    // the probe's report is bit-identical to the SimResult fields.
    auto cfg = testutil::smallConfig();
    auto rep = probe.report(cfg.frequency_hz);
    EXPECT_EQ(rep.count, res.completed_requests);
    EXPECT_EQ(rep.mean_s, res.mean_latency_s);
    EXPECT_EQ(rep.p50_s, res.p50_latency_s);
    EXPECT_EQ(rep.p99_s, res.p99_latency_s);
    EXPECT_EQ(rep.max_s, res.max_latency_s);

    // Per-service trackers agree with the per-service stats.
    for (const auto &svc : res.per_service) {
        const auto *t = probe.serviceCycles(svc.ctx);
        if (svc.completed == 0) {
            EXPECT_EQ(t, nullptr);
            continue;
        }
        ASSERT_NE(t, nullptr);
        EXPECT_EQ(t->count(), svc.completed);
        double inv_f = 1.0 / cfg.frequency_hz;
        EXPECT_EQ(t->percentile(0.99) * inv_f, svc.p99_latency_s);
    }

    probe.clear();
    EXPECT_EQ(probe.cycles().count(), 0u);
}

TEST(ObsLatencyProbe, SkipsServicesThatRetiredNothing)
{
    // Retirements only on services 0 and 2: the probe's per-service
    // vector has a hole at 1 that lookups and exports must skip.
    LatencyProbe probe;
    sim::TraceEvent ev;
    ev.type = sim::TraceEventType::RequestRetired;
    const std::pair<ContextId, std::uint64_t> samples[] = {
        {0, 10}, {2, 30}, {0, 20}};
    for (auto [ctx, cycles] : samples) {
        ev.ctx = ctx;
        ev.a = cycles;
        probe.record(ev);
    }
    // Non-retired event types are ignored entirely.
    ev.type = sim::TraceEventType::RequestArrival;
    probe.record(ev);

    EXPECT_EQ(probe.cycles().count(), 3u);
    ASSERT_NE(probe.serviceCycles(0), nullptr);
    EXPECT_EQ(probe.serviceCycles(0)->count(), 2u);
    EXPECT_EQ(probe.serviceCycles(1), nullptr);
    EXPECT_EQ(probe.serviceCycles(7), nullptr);

    MetricsSnapshot snap;
    probe.addTo(snap, "gap", units::MHz(100));
    EXPECT_NE(snap.root().at("latency").find("gap.svc0"), nullptr);
    EXPECT_EQ(snap.root().at("latency").find("gap.svc1"), nullptr);
    EXPECT_NE(snap.root().at("latency").find("gap.svc2"), nullptr);
}

// ---------------------------------------------------------------------
// MetricsSnapshot

TEST(ObsSnapshot, RoundTripsEveryExporter)
{
    stats::StatRegistry reg;
    reg.setValue("mmu.busy_cycles", 1234.0);
    reg.registerStat("queue.depth", [] { return 7.0; });

    stats::LatencyTracker lat;
    for (double v : {1.0, 2.0, 3.0, 10.0})
        lat.record(v);

    stats::LogHistogram hist(1e-6, 1.0);
    hist.record(1e-4);
    hist.record(2e-3);
    hist.record(1e-9); // underflow

    stats::CycleBreakdown bd;
    bd.add(stats::CycleClass::Working, 60.0);
    bd.add(stats::CycleClass::Idle, 40.0);

    stats::FaultStats fs;
    fs.dram_corrected = 3;
    fs.watchdog_resets = 1;
    fs.recovery_cycles.record(50.0);

    MetricsSnapshot snap;
    snap.set("run.seed", std::uint64_t{17});
    snap.set("run.load", 0.4);
    snap.addRegistry(reg, "sim.");
    snap.addLatency("request", lat, 1e-3);
    snap.addLogHistogram("service", hist);
    snap.addCycleBreakdown("mmu", bd);
    snap.addFaultStats("run", fs);
    snap.section("sweeps")["demo"].append(Json::object());

    std::string text = snap.toJson();
    std::string error;
    auto back = MetricsSnapshot::parse(text, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->toJson(), text);

    const Json &root = back->root();
    EXPECT_EQ(root.at("schema_version").asInt(),
              MetricsSnapshot::kSchemaVersion);
    EXPECT_DOUBLE_EQ(
        root.at("scalars").at("sim.mmu.busy_cycles").asDouble(), 1234.0);
    EXPECT_DOUBLE_EQ(root.at("scalars").at("sim.queue.depth").asDouble(),
                     7.0);
    const Json &l = root.at("latency").at("request");
    EXPECT_EQ(l.at("count").asInt(), 4);
    EXPECT_DOUBLE_EQ(l.at("max").asDouble(), 10.0 * 1e-3);
    EXPECT_EQ(root.at("log_histograms").at("service").at("underflows")
                  .asInt(), 1);
    EXPECT_DOUBLE_EQ(
        root.at("cycle_breakdown").at("mmu").at("total").asDouble(),
        100.0);
    EXPECT_EQ(
        root.at("fault_stats").at("run").at("dram_corrected").asInt(), 3);
}

TEST(ObsSnapshot, RejectsWrongSchemaVersion)
{
    std::string error;
    EXPECT_FALSE(
        MetricsSnapshot::parse("{\"schema_version\": 999}", &error)
            .has_value());
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(MetricsSnapshot::parse("{}", nullptr).has_value());
    EXPECT_FALSE(MetricsSnapshot::parse("not json", &error).has_value());
}

TEST(ObsSnapshot, LoadPointExportsMemKeysOnlyForActiveHierarchy)
{
    // A passthrough point keeps the schema it had before the memory
    // hierarchy existed; an active hierarchy adds the "mem" block.
    core::LoadPointResult point;
    MetricsSnapshot snap;
    core::addLoadPoint(snap, "passthrough", point);
    point.sim.mem.active = true;
    point.sim.mem.llc_hits = 3;
    point.sim.mem.llc_misses = 1;
    point.sim.mem.prefetch_issued = 4;
    point.sim.mem.prefetch_useful = 2;
    point.sim.mem.dram_transfers = 5;
    core::addLoadPoint(snap, "hierarchy", point);

    const Json &sweeps = snap.root().at("sweeps");
    EXPECT_EQ(sweeps.at("passthrough").at(0).find("mem"), nullptr);
    const Json &mem = sweeps.at("hierarchy").at(0).at("mem");
    for (const char *key :
         {"llc_hits", "llc_misses", "llc_evictions", "hit_rate",
          "prefetch_issued", "prefetch_useful", "prefetch_accuracy",
          "sp_fill_stalls", "sp_bank_switches", "sp_high_water",
          "wb_combines", "wb_bytes_in", "wb_bytes_drained",
          "dram_transfers"})
        EXPECT_NE(mem.find(key), nullptr) << key;
    EXPECT_DOUBLE_EQ(mem.at("hit_rate").asDouble(), 0.75);
    EXPECT_DOUBLE_EQ(mem.at("prefetch_accuracy").asDouble(), 0.5);
    EXPECT_EQ(mem.at("dram_transfers").asInt(), 5);
}

TEST(ObsSnapshot, ParallelSweepSnapshotIsByteIdenticalToSerial)
{
    core::ExperimentOptions opts;
    opts.model = testutil::tinyRnn();
    opts.train_model = testutil::tinyRnn();
    opts.train_batch = 16;
    opts.warmup_requests = 30;
    opts.measure_requests = 300;
    opts.seed = 17;
    opts.fault_plan = testutil::densePlan();
    const std::vector<double> loads = {0.1, 0.4, 0.7};
    auto cfg = testutil::smallConfig("obs-snapshot");

    opts.jobs = 1;
    auto serial = core::runLoadSweep(cfg, loads, opts);
    opts.jobs = 4;
    auto parallel = core::runLoadSweep(cfg, loads, opts);

    MetricsSnapshot snap_serial, snap_parallel;
    core::addLoadSweep(snap_serial, "sweep", serial);
    core::addLoadSweep(snap_parallel, "sweep", parallel);

    std::string a = snap_serial.toJson();
    std::string b = snap_parallel.toJson();
    EXPECT_EQ(fnv1a(a), fnv1a(b));
    EXPECT_EQ(a, b);
    // The sweep section actually carries the points.
    auto back = MetricsSnapshot::parse(a);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->root().at("sweeps").at("sweep").size(), loads.size());
}

// ---------------------------------------------------------------------
// End to end: the bench-facing files

TEST(ObsEndToEnd, TraceAndMetricsFilesWriteAndParseBack)
{
    const std::string trace_path = "test_obs_trace.json";
    const std::string metrics_path = "test_obs_metrics.json";

    auto cfg = testutil::smallConfig("obs-e2e");
    core::ExperimentOptions opts;
    opts.model = testutil::tinyRnn();
    opts.warmup_requests = 30;
    opts.measure_requests = 200;
    opts.seed = 17;

    ChromeTraceSink trace(cfg.frequency_hz);
    LatencyProbe probe;
    MultiSink fan;
    fan.add(&trace);
    fan.add(&probe);
    opts.trace_sink = &fan;
    auto point = core::runAtLoad(cfg, 0.4, opts);

    MetricsSnapshot snap;
    core::addLoadPoint(snap, "e2e", point);
    probe.addTo(snap, "e2e", cfg.frequency_hz);
    ASSERT_TRUE(trace.writeTo(trace_path));
    ASSERT_TRUE(snap.writeTo(metrics_path));

    std::string error;
    auto trace_doc = Json::parse(slurp(trace_path), &error);
    ASSERT_TRUE(trace_doc.has_value()) << error;
    EXPECT_GT(trace_doc->at("traceEvents").size(), 0u);

    auto metrics_doc = MetricsSnapshot::parse(slurp(metrics_path),
                                              &error);
    ASSERT_TRUE(metrics_doc.has_value()) << error;
    const Json &pt = metrics_doc->root().at("sweeps").at("e2e").at(0);
    EXPECT_EQ(pt.at("completed_requests").asInt(),
              static_cast<std::int64_t>(point.sim.completed_requests));
    EXPECT_EQ(metrics_doc->root().at("latency").at("e2e").at("count")
                  .asInt(),
              static_cast<std::int64_t>(point.sim.completed_requests));

    std::remove(trace_path.c_str());
    std::remove(metrics_path.c_str());
}

} // namespace
} // namespace obs
} // namespace equinox
