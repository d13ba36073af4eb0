/**
 * @file
 * The perfbench binary: runs one workload for a fixed host-time budget
 * and prints its metrics.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--recorded <file>] [--spans-out <file>]
 *             [--setup-only] [--record]
 *
 * A run sets the workload up once, then repeats passes over its
 * operations until --seconds have gone by. --trace 0 runs plain passes
 * and reports the end-to-end metrics; --trace 1 alternates plain and
 * traced passes and reports the per-layer metrics, the tracing
 * overhead, and fails any operation whose traced output differs from
 * the plain one. Every operation's digest must also equal the first
 * pass's, and the recorded value when --recorded holds one for this
 * workload and seed. The last stdout line is one JSON object:
 *   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
 * --setup-only prints {"setup_s": x} after set-up; --record prints the
 * first pass's digests as a line for the --recorded file.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "tracer.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string recorded;
    std::string spans_out;
    bool setup_only = false;
    bool record = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> [--recorded "
                 "<file>] [--spans-out <file>] [--setup-only] "
                 "[--record]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--setup-only") {
            o.setup_only = true;
            continue;
        }
        if (a == "--record") {
            o.record = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value after " + a);
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
        } else if (a == "--trace") {
            o.trace = v == "1";
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
        } else if (a == "--recorded") {
            o.recorded = v;
        } else if (a == "--spans-out") {
            o.spans_out = v;
        } else {
            usage("unknown argument " + a);
        }
        if (end && (*end != '\0' || end == v.c_str()))
            usage("bad number '" + v + "' for " + a);
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (!(o.seconds >= 0.0))
        usage("--seconds must be >= 0");
    return o;
}

/**
 * Recorded digests of @p workload at @p seed: the line
 * "<workload> <seed> <hex digest>..." of @p path; empty when absent.
 */
std::vector<std::uint64_t>
recordedDigests(const std::string &path, const std::string &workload,
                std::uint64_t seed)
{
    std::vector<std::uint64_t> out;
    if (path.empty())
        return out;
    std::ifstream in(path);
    if (!in)
        EQX_FATAL("cannot read recorded digests '", path, "'");
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string name;
        std::uint64_t s = 0;
        if (!(ls >> name >> s) || name != workload || s != seed)
            continue;
        std::string hex;
        while (ls >> hex)
            out.push_back(std::strtoull(hex.c_str(), nullptr, 16));
    }
    return out;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Per-pass metric samples in first-seen order; each metric reports the
 * median of its samples.
 */
class Series
{
  public:
    void
    add(const std::string &name, double v, const std::string &unit)
    {
        auto it = index_.find(name);
        if (it == index_.end()) {
            it = index_.emplace(name, rows_.size()).first;
            rows_.push_back({name, unit, {}});
        }
        rows_[it->second].samples.push_back(v);
    }

    std::vector<Metric>
    medians() const
    {
        std::vector<Metric> out;
        for (const auto &r : rows_)
            out.push_back({r.name, median(r.samples), r.unit});
        return out;
    }

  private:
    struct Row
    {
        std::string name;
        std::string unit;
        std::vector<double> samples;
    };
    std::vector<Row> rows_;
    std::map<std::string, std::size_t> index_;
};

/** Every per-layer metric of a traced run, in a fixed order. */
std::vector<Metric>
layerMetrics(const Tracer &tracer, const Workload &wl,
             const std::vector<PassResult> &plain,
             const std::vector<PassResult> &traced)
{
    static const char *const kGemm[] = {"arith.gemm.hbfp8",
                                        "arith.gemm.fp32"};
    Series s;
    for (std::size_t i = 0; i < traced.size(); ++i) {
        // Tracer pass 0 is set-up; traced pass i is tracer pass i + 1.
        const std::size_t p = i + 1;
        const auto totals = tracer.totals(p);
        auto layer = [&](const std::string &l) {
            auto it = totals.find(l);
            return it == totals.end() ? LayerTotals{} : it->second;
        };
        auto c = [&](const std::string &n) { return tracer.counter(p, n); };

        const double route = layer("cluster.route").busy_s;
        const double picks = c("cluster.route.picks");
        s.add("cluster.gen.busy_s", layer("cluster.gen").busy_s, "s");
        s.add("cluster.gen.candidates", c("cluster.gen.candidates"),
              "count");
        s.add("cluster.route.busy_s", route, "s");
        s.add("cluster.route.picks", picks, "count");
        s.add("cluster.route.picks_per_s", ratio(picks, route), "1/s");
        s.add("cluster.route.consumed_frac",
              ratio(c("cluster.route.admitted"), c("cluster.route.assigned")),
              "ratio");
        s.add("cluster.route.picks_per_completed",
              ratio(picks, c("cluster.route.completed")), "ratio");
        s.add("cluster.control_plane.busy_s",
              layer("cluster.control_plane").busy_s, "s");
        for (const char *n :
             {"shed", "retries", "hedges", "dispatch_heap_high_water"}) {
            std::string name = std::string("cluster.control_plane.") + n;
            s.add(name, c(name), "count");
        }
        s.add("sim.install.busy_s", layer("sim.install").busy_s, "s");
        const LayerTotals run = layer("sim.run");
        const double events = c("sim.events");
        s.add("sim.run.busy_s", run.busy_s, "s");
        s.add("sim.run.calls", static_cast<double>(run.calls), "count");
        s.add("sim.events", events, "count");
        s.add("sim.events_per_s", ratio(events, run.busy_s), "1/s");
        s.add("sim.events_inlined_frac",
              ratio(c("sim.events_inlined"), events), "ratio");
        s.add("sim.sim_s_per_host_s", ratio(c("sim.sim_s"), run.busy_s),
              "s/s");
        s.add("stats.merge.busy_s", layer("stats.merge").busy_s, "s");
        s.add("stats.merge.samples", c("stats.merge.samples"), "count");
        s.add("obs.snapshot.busy_s", layer("obs.snapshot").busy_s, "s");
        for (const char *g : kGemm) {
            const std::string l = g;
            const LayerTotals t = layer(l);
            const double macs = c(l + ".macs");
            s.add(l + ".busy_s", t.busy_s, "s");
            s.add(l + ".calls", static_cast<double>(t.calls), "count");
            s.add(l + ".macs", macs, "MAC");
            s.add(l + ".macs_per_s", ratio(macs, t.busy_s), "MAC/s");
        }
        s.add("nn.train.self_s", layer("nn.train").self_s, "s");
        double dominant = 0.0;
        for (const auto &l : wl.dominantLayers())
            dominant += layer(l).busy_s;
        s.add("dominant_layer_frac", ratio(dominant, traced[i].wall_s),
              "ratio");
    }
    std::vector<Metric> out = s.medians();

    // Per-call distributions, pooled over every traced pass.
    auto addCalls = [&](const std::string &l) {
        CallStats cs = callStats(tracer.durations(l));
        out.push_back({l + ".call_p50_s", cs.p50_s, "s"});
        out.push_back({l + ".call_tail_s", cs.tail_s, "s"});
        out.push_back({l + ".call_tail_q", cs.tail_q, "quantile"});
    };
    addCalls("sim.run");
    for (const char *g : kGemm)
        addCalls(g);

    const auto setup = tracer.totals(0);
    auto setupBusy = [&](const char *l) {
        auto it = setup.find(l);
        return it == setup.end() ? 0.0 : it->second.busy_s;
    };
    out.push_back({"core.setup.preset_s", setupBusy("core.setup.preset"),
                   "s"});
    out.push_back({"workload.compile_s", setupBusy("workload.compile"),
                   "s"});
    out.push_back({"nn.dataset_s", setupBusy("nn.dataset"), "s"});

    std::vector<double> plain_wall, traced_wall;
    for (const auto &r : plain)
        plain_wall.push_back(r.wall_s);
    for (const auto &r : traced)
        traced_wall.push_back(r.wall_s);
    out.push_back({"trace.overhead_s",
                   median(traced_wall) - median(plain_wall), "s"});
    return out;
}

void
printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    equinox::setQuietLogging(true);
    const Options opt = parseArgs(argc, argv);
    auto wl = makeWorkload(opt.workload);
    if (!wl)
        usage("unknown workload '" + opt.workload + "'");

    Tracer tracer;
    auto t0 = Clock::now();
    wl->setup(opt.seed, tracer);
    const double setup_s = secondsSince(t0);
    if (opt.setup_only) {
        std::printf("{\"setup_s\": %.17g}\n", setup_s);
        return 0;
    }

    // Plain passes only, or plain and traced passes alternating (plain
    // first), until the budget is spent.
    std::vector<PassResult> plain, traced;
    const auto start = Clock::now();
    do {
        if (opt.trace && traced.size() < plain.size()) {
            tracer.startPass();
            traced.push_back(wl->pass(&tracer));
        } else {
            plain.push_back(wl->pass(nullptr));
        }
    } while (!opt.record &&
             (secondsSince(start) < opt.seconds ||
              (opt.trace && traced.size() < plain.size())));

    const std::vector<OpResult> &ref = plain.front().ops;
    if (opt.record) {
        std::printf("%s %llu", opt.workload.c_str(),
                    static_cast<unsigned long long>(opt.seed));
        for (const auto &op : ref)
            std::printf(" %s", hex(op.digest).c_str());
        std::printf("\n");
        return 0;
    }

    // Output checks: every operation of every pass passes its own
    // checks and reproduces the first plain pass's digest (traced
    // passes included), which must equal the recorded one if any.
    const auto recorded =
        recordedDigests(opt.recorded, opt.workload, opt.seed);
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> failures;
    auto check = [&](const PassResult &pr, const char *kind) {
        for (std::size_t i = 0; i < pr.ops.size(); ++i) {
            const OpResult &op = pr.ops[i];
            ++attempted;
            std::string why = op.error;
            if (why.empty() && op.digest != ref[i].digest)
                why = "digest " + hex(op.digest) + " != first pass's " +
                      hex(ref[i].digest);
            if (why.empty() && !recorded.empty() &&
                (i >= recorded.size() || op.digest != recorded[i]))
                why = "digest " + hex(op.digest) + " != recorded";
            if (!why.empty()) {
                ++failed;
                failures.push_back(std::string(kind) + " " + op.name +
                                   ": " + why);
            }
        }
    };
    for (const auto &pr : plain)
        check(pr, "plain");
    for (const auto &pr : traced)
        check(pr, "traced");

    std::printf("workload %s  seed %llu  %zu plain + %zu traced passes  "
                "digests %s\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), plain.size(),
                traced.size(),
                recorded.empty() ? "not recorded for this seed"
                                 : "checked against recorded");
    for (std::size_t i = 0; i < failures.size() && i < 10; ++i)
        std::printf("  FAILED %s\n", failures[i].c_str());
    for (const auto &[kind, passes] : {std::pair{"plain", &plain},
                                       std::pair{"traced", &traced}}) {
        if (passes->empty())
            continue;
        std::printf("  %s pass wall_s:", kind);
        for (const auto &pr : *passes)
            std::printf(" %.4g", pr.wall_s);
        std::printf("\n");
    }

    std::vector<Metric> metrics;
    if (opt.trace) {
        metrics = layerMetrics(tracer, *wl, plain, traced);
        if (!opt.spans_out.empty() &&
            !tracer.writeChromeTrace(opt.spans_out))
            EQX_FATAL("cannot write spans to '", opt.spans_out, "'");
    } else {
        std::vector<double> wall, req_rate, event_rate, step_rate;
        for (const auto &pr : plain) {
            wall.push_back(pr.wall_s);
            req_rate.push_back(
                ratio(static_cast<double>(pr.completed_requests), pr.wall_s));
            event_rate.push_back(
                ratio(static_cast<double>(pr.events), pr.wall_s));
            step_rate.push_back(
                ratio(static_cast<double>(pr.train_steps), pr.wall_s));
        }
        metrics = {{"wall_s", median(wall), "s"},
                   {"setup_s", setup_s, "s"},
                   {"peak_rss_mb", peakRssMb(), "MB"}};
        // Throughputs that are 0 on some workload are reported here
        // only; the JSON line carries metrics every workload has.
        auto rate = [](double v) {
            return v > 0.0 ? std::to_string(v) : std::string("n/a");
        };
        std::printf("  sim_req_per_s      %s 1/s\n",
                    rate(median(req_rate)).c_str());
        std::printf("  events_per_s       %s 1/s\n",
                    rate(median(event_rate)).c_str());
        std::printf("  train_steps_per_s  %s 1/s\n",
                    rate(median(step_rate)).c_str());
        std::printf("  failed_frac        %.6g (%llu of %llu operations)\n",
                    ratio(static_cast<double>(failed),
                          static_cast<double>(attempted)),
                    static_cast<unsigned long long>(failed),
                    static_cast<unsigned long long>(attempted));
    }
    for (const auto &m : metrics)
        std::printf("  %-44s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    printJson(failed == 0, attempted, failed, metrics);
    return 0;
}
