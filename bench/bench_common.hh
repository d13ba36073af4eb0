/**
 * @file
 * Shared helpers for the experiment-reproduction binaries: consistent
 * headers, load grids, formatting, `--jobs` parsing, and the perf
 * harness that records each artefact's wall-clock trajectory.
 */

#ifndef EQUINOX_BENCH_BENCH_COMMON_HH
#define EQUINOX_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cluster/sweep.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "core/experiment.hh"
#include "core/presets.hh"
#include "obs/chrome_trace.hh"
#include "obs/latency_probe.hh"
#include "obs/metrics_snapshot.hh"
#include "sim/accelerator.hh"
#include "sim/event_queue.hh"
#include "stats/histogram.hh"
#include "stats/table.hh"

namespace equinox
{
namespace bench
{

/** Print a banner tying the binary to its paper artefact. */
inline void
banner(const std::string &artifact, const std::string &description)
{
    std::string line(72, '=');
    std::printf("%s\n%s -- %s\n%s\n", line.c_str(), artifact.c_str(),
                description.c_str(), line.c_str());
}

/** Section sub-header. */
inline void
section(const std::string &title)
{
    std::printf("\n--- %s ---\n", title.c_str());
}

/** The standard inference-load grid used by the load-sweep figures. */
inline std::vector<double>
loadGrid()
{
    return {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
}

/** Format helper. */
inline std::string
num(double v, int digits = 2)
{
    return stats::Table::num(v, digits);
}

/** The shared bench command line (see parseBenchArgs). */
struct BenchArgs
{
    std::size_t jobs = 1;
    std::string trace_path;   //!< `--trace FILE`: Perfetto JSON out
    std::string metrics_path; //!< `--metrics FILE`: snapshot JSON out
};

/**
 * Parse the shared bench command line: `--jobs N` (also `--jobs=N`)
 * selects the sweep fan-out (default: the EQX_JOBS environment
 * variable, else hardware concurrency; 1 forces the exact serial code
 * path); `--trace FILE` exports a Chrome/Perfetto trace of one
 * representative run; `--metrics FILE` exports the machine-readable
 * metrics snapshot. `--help` prints the usage and exits 0; any other
 * argument prints it to stderr and exits 1, so a mistyped flag never
 * runs silently with defaults.
 */
inline BenchArgs
parseBenchArgs(int argc, char **argv)
{
    BenchArgs args;
    args.jobs = defaultJobs();
    auto usage = [&](std::FILE *out) {
        std::fprintf(
            out,
            "usage: %s [--jobs N] [--trace FILE] [--metrics FILE]\n"
            "  --jobs N       worker threads for the sweeps "
            "(default: EQX_JOBS or hardware concurrency; 1 = "
            "serial)\n"
            "  --trace FILE   write a Chrome/Perfetto trace of one "
            "representative run\n"
            "  --metrics FILE write the metrics snapshot JSON\n",
            argv[0]);
    };
    auto flagValue = [&](int &i, const std::string &arg,
                         const std::string &flag,
                         std::string &out) -> bool {
        if (arg == flag && i + 1 < argc) {
            out = argv[++i];
            return true;
        }
        if (arg.rfind(flag + "=", 0) == 0) {
            out = arg.substr(flag.size() + 1);
            return true;
        }
        return false;
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string value;
        if (flagValue(i, arg, "--jobs", value)) {
            char *end = nullptr;
            long v = std::strtol(value.c_str(), &end, 10);
            if (!value.empty() && end && *end == '\0' && v > 0)
                args.jobs = static_cast<std::size_t>(v);
            else
                EQX_FATAL("--jobs wants a positive integer, got '",
                          value, "'");
        } else if (flagValue(i, arg, "--trace", args.trace_path) ||
                   flagValue(i, arg, "--metrics", args.metrics_path)) {
            if ((arg.rfind("--trace", 0) == 0 && args.trace_path.empty()) ||
                (arg.rfind("--metrics", 0) == 0 &&
                 args.metrics_path.empty()))
                EQX_FATAL(arg, " wants an output path");
        } else if (arg == "--help" || arg == "-h") {
            usage(stdout);
            std::exit(0);
        } else {
            std::fprintf(stderr, "%s: unrecognized argument '%s'\n",
                         argv[0], argv[i]);
            usage(stderr);
            std::exit(1);
        }
    }
    return args;
}

/**
 * Perf harness every bench binary runs under: prints the artefact
 * banner, parses `--jobs` / `--trace` / `--metrics` from argv and
 * rejects any other argument (see parseBenchArgs), and on finish()
 * writes `BENCH_<artifact>.json` -- wall-clock seconds, simulation
 * events dispatched, events/second, jobs used, and (when the bench
 * recorded its load points) the simulated latency percentiles and the
 * peak delivered ops rate, so the perf *and* quality trajectory of
 * each artefact is recorded run over run. The BENCH record schema is
 * documented in EXPERIMENTS.md.
 *
 * `--metrics FILE` additionally writes the full obs::MetricsSnapshot
 * (recorded sweeps land under "sweeps.<label>"); `--trace FILE` is
 * consumed by traceRepresentativeRun() below.
 */
class Harness
{
  public:
    Harness(int argc, char **argv, std::string artifact,
            const std::string &title, const std::string &description)
        : artifact_(std::move(artifact)),
          args_(parseBenchArgs(argc, argv)),
          events_start_(sim::globalDispatchedEvents()),
          start_(std::chrono::steady_clock::now())
    {
        banner(title, description);
    }

    ~Harness()
    {
        if (!finished_)
            finish();
    }

    Harness(const Harness &) = delete;
    Harness &operator=(const Harness &) = delete;

    /** Worker threads the binary's sweeps should fan out across. */
    std::size_t jobs() const { return args_.jobs; }

    /** `--trace` / `--metrics` output paths; empty = not requested. */
    const std::string &tracePath() const { return args_.trace_path; }
    const std::string &metricsPath() const { return args_.metrics_path; }

    /** The snapshot finish() exports when `--metrics` was given. */
    obs::MetricsSnapshot &metrics() { return metrics_; }

    /**
     * Record one measured load point into the artefact's perf record:
     * the per-point simulated latency percentiles feed the aggregate
     * p50/p99/max fields of BENCH_<artifact>.json.
     */
    void
    recordPoint(const core::LoadPointResult &r)
    {
        if (r.sim.completed_requests == 0)
            return;
        point_p50_ms_.record(r.sim.p50_latency_s * 1e3);
        point_p99_ms_.record(r.p99_ms);
        point_max_ms_.record(r.sim.max_latency_s * 1e3);
        peak_tops_ = std::max(peak_tops_, r.inference_tops);
    }

    /** recordPoint over a sweep + export it under "sweeps.<label>". */
    void
    recordSweep(const std::string &label,
                const std::vector<core::LoadPointResult> &results)
    {
        for (const auto &r : results)
            recordPoint(r);
        core::addLoadSweep(metrics_, label, results);
    }

    /**
     * Cluster flavour of recordPoint: the fleet's exact merged
     * percentiles feed the same aggregate latency fields, the peak
     * rates track the fleet aggregates, and the training throughput
     * the coordinator recovered lands in `train_rate_tops`.
     */
    void
    recordClusterPoint(const cluster::ClusterPointResult &r)
    {
        if (r.completed_requests == 0)
            return;
        point_p50_ms_.record(r.p50_latency_s * 1e3);
        point_p99_ms_.record(r.p99_latency_s * 1e3);
        point_max_ms_.record(r.max_latency_s * 1e3);
        peak_tops_ = std::max(peak_tops_, r.aggregate_inference_tops);
        peak_train_tops_ =
            std::max(peak_train_tops_, r.aggregate_training_tops);
    }

    /** recordClusterPoint over a sweep + export under "cluster.<label>". */
    void
    recordClusterSweep(const std::string &label,
                       const std::vector<cluster::ClusterPointResult> &rs)
    {
        for (const auto &r : rs)
            recordClusterPoint(r);
        core::addClusterSweep(metrics_, label, rs);
    }

    /**
     * Attach one headline number to the artefact's perf record:
     * finish() writes every note under `notes.<key>` in
     * BENCH_<artifact>.json, so per-bench acceptance figures (e.g.
     * availability gained by a mechanism) are recorded run over run
     * alongside the fixed schema fields.
     */
    void
    note(const std::string &key, double value)
    {
        notes_[key] = value;
    }

    void
    note(const std::string &key, std::uint64_t value)
    {
        notes_[key] = value;
    }

    /** Record wall clock + event totals and emit BENCH_<artifact>.json. */
    void
    finish()
    {
        finished_ = true;
        auto elapsed = std::chrono::steady_clock::now() - start_;
        double wall_s =
            std::chrono::duration<double>(elapsed).count();
        // Per-run event count: the delta over the process-global tally
        // since this harness started (sim::resetGlobalSimCounters()
        // exists for callers that want absolute per-run figures; the
        // delta keeps multiple harnesses in one process additive).
        std::uint64_t events =
            sim::globalDispatchedEvents() - events_start_;
        double eps = wall_s > 0.0
                         ? static_cast<double>(events) / wall_s
                         : 0.0;
        std::printf("\n[bench] %s: wall %.3f s, %llu events "
                    "(%.3g events/s), jobs %zu\n", artifact_.c_str(),
                    wall_s, static_cast<unsigned long long>(events),
                    eps, args_.jobs);

        // Aggregates over the recorded points: the median of the
        // per-point p50s, the worst per-point p99/max (tail metrics
        // aggregate pessimistically), and the peak delivered rate.
        obs::Json record = obs::Json::object();
        record["artifact"] = artifact_;
        record["schema_version"] = obs::MetricsSnapshot::kSchemaVersion;
        record["wall_seconds"] = wall_s;
        record["events_dispatched"] = events;
        record["events_per_second"] = eps;
        record["jobs"] = static_cast<std::uint64_t>(args_.jobs);
        record["points_recorded"] =
            static_cast<std::uint64_t>(point_p99_ms_.count());
        record["latency_p50_ms"] = point_p50_ms_.percentile(0.5);
        record["latency_p99_ms"] = point_p99_ms_.max();
        record["latency_max_ms"] = point_max_ms_.max();
        record["ops_rate_tops"] = peak_tops_;
        record["train_rate_tops"] = peak_train_tops_;
        if (notes_.size() > 0)
            record["notes"] = notes_;

        std::string path = "BENCH_" + artifact_ + ".json";
        std::ofstream out(path);
        if (!out)
            EQX_WARN("cannot write ", path);
        else
            out << record.dump(2);

        if (!args_.metrics_path.empty()) {
            metrics_.section("bench") = record;
            if (metrics_.writeTo(args_.metrics_path))
                std::printf("[bench] metrics snapshot: %s\n",
                            args_.metrics_path.c_str());
        }
    }

  private:
    std::string artifact_;
    BenchArgs args_;
    std::uint64_t events_start_;
    std::chrono::steady_clock::time_point start_;
    bool finished_ = false;

    obs::MetricsSnapshot metrics_;
    obs::Json notes_ = obs::Json::object();
    stats::LatencyTracker point_p50_ms_;
    stats::LatencyTracker point_p99_ms_;
    stats::LatencyTracker point_max_ms_;
    double peak_tops_ = 0.0;
    double peak_train_tops_ = 0.0;
};

/**
 * When `--trace FILE` was given, re-run one representative load point
 * with a ChromeTraceSink + LatencyProbe installed and write the
 * Perfetto-loadable trace; the probe's exact percentile report lands
 * under "latency.trace_run" in the harness metrics. A no-op without
 * `--trace`. Tracing is observation-only, so the traced re-run
 * reports byte-identical results to the untraced sweep point.
 */
inline void
traceRepresentativeRun(Harness &harness,
                       const sim::AcceleratorConfig &cfg, double load,
                       const core::ExperimentOptions &opts)
{
    if (harness.tracePath().empty())
        return;
    obs::ChromeTraceSink trace(cfg.frequency_hz);
    obs::LatencyProbe probe;
    obs::MultiSink sinks;
    sinks.add(&trace);
    // The probe's percentile report only ever surfaces through the
    // metrics snapshot; without `--metrics` installing it would tax
    // every RequestRetired record for output nobody reads.
    const bool want_metrics = !harness.metricsPath().empty();
    if (want_metrics)
        sinks.add(&probe);
    auto traced = opts;
    traced.trace_sink = &sinks;
    traced.jobs = 1;
    core::runAtLoad(cfg, load, traced);
    if (trace.writeTo(harness.tracePath()))
        std::printf("\n[bench] trace (%llu events, %s @ load %.2f): "
                    "%s -- open at https://ui.perfetto.dev\n",
                    static_cast<unsigned long long>(trace.total()),
                    cfg.name.c_str(), load,
                    harness.tracePath().c_str());
    if (want_metrics)
        probe.addTo(harness.metrics(), "trace_run", cfg.frequency_hz);
}

/**
 * The design-space sweep of @p enc from the process cache, noting the
 * host milliseconds of the call under `sweep_ms.<encoding>`. Call it
 * once per encoding, before anything else reads the cache, so the note
 * times the cache-filling sweep.
 */
inline const model::DseResult &
timedSweep(Harness &harness, arith::Encoding enc)
{
    auto t0 = std::chrono::steady_clock::now();
    const auto &sweep = core::cachedSweep(enc, harness.jobs());
    harness.note(std::string("sweep_ms.") + arith::encodingName(enc),
                 std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
    return sweep;
}

} // namespace bench
} // namespace equinox

#endif // EQUINOX_BENCH_BENCH_COMMON_HH
