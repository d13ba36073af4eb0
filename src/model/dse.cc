#include "model/dse.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/units.hh"
#include "workload/compiler.hh"
#include "workload/dnn_model.hh"

namespace equinox
{
namespace model
{

namespace
{

std::vector<unsigned>
defaultNs()
{
    std::vector<unsigned> ns;
    for (unsigned n = 1; n <= 256; ++n)
        ns.push_back(n);
    return ns;
}

std::vector<double>
defaultFrequencies()
{
    using units::MHz;
    return {MHz(532), MHz(610), MHz(700), MHz(800), MHz(1000),
            MHz(1200), MHz(1600), MHz(2000), MHz(2400)};
}

/** Batch-of-n service time of @p probe on this design (Table 1). */
double
probeServiceTime(const DesignPoint &p, const workload::DnnModel &probe)
{
    sim::AcceleratorConfig cfg = toAcceleratorConfig(p, "dse-probe");
    workload::Compiler compiler(cfg);
    return compiler.compileInference(probe).service_time_s;
}

} // namespace

sim::AcceleratorConfig
toAcceleratorConfig(const DesignPoint &p, const std::string &name)
{
    sim::AcceleratorConfig cfg;
    cfg.name = name;
    cfg.n = p.n;
    cfg.m = p.m;
    cfg.w = p.w;
    cfg.frequency_hz = p.frequency_hz;
    cfg.encoding = p.encoding;
    return cfg;
}

namespace
{

/**
 * Evaluate one (n, f) grid cell: for each candidate w, take the
 * largest feasible m; keep the throughput-maximal (then power-minimal)
 * design, and time @p probe on it. Returns nullopt when nothing fits
 * the envelopes.
 */
std::optional<DesignPoint>
bestDesignAt(const AnalyticalModel &eq, arith::Encoding enc, unsigned n,
             double f, unsigned max_w, const workload::DnnModel &probe)
{
    const AnalyticalModel::Cell cell = eq.cell(n, f);
    DesignPoint best;
    double best_t = -1.0;
    double best_p = std::numeric_limits<double>::infinity();
    for (unsigned w = 1; w <= max_w; ++w) {
        unsigned m = cell.maxM(w);
        if (m == 0) {
            // Power/area already exceeded by the wn SRAM term or
            // the per-m cost; larger w only makes it worse.
            if (w > 1)
                break;
            continue;
        }
        double t = cell.throughput(m, w);
        double p = cell.power(m, w);
        if (t > best_t * (1.0 + 1e-9) ||
            (std::abs(t - best_t) <= best_t * 1e-9 && p < best_p)) {
            best_t = t;
            best_p = p;
            best.n = n;
            best.m = m;
            best.w = w;
            best.frequency_hz = f;
            best.encoding = enc;
            best.throughput_ops = t;
            best.power_w = p;
            best.area_mm2 = cell.area(m, w);
        }
    }
    if (best_t <= 0.0)
        return std::nullopt;
    best.service_time_s = probeServiceTime(best, probe);
    return best;
}

} // namespace

DseResult
exploreDesignSpace(const TechParams &tech, arith::Encoding enc,
                   const DseConfig &cfg)
{
    const AnalyticalModel eq(tech, enc);
    const workload::DnnModel probe = workload::DnnModel::lstm2048();
    std::vector<unsigned> ns =
        cfg.n_values.empty() ? defaultNs() : cfg.n_values;
    std::vector<double> fs =
        cfg.frequencies.empty() ? defaultFrequencies() : cfg.frequencies;

    // Fan the grid cells out; every cell is independent (the analytic
    // model and the probe are read-only, each cell compiles with its own
    // Compiler) and cells land in a slot vector by grid index, so the
    // point order — and therefore every downstream frontier/preset
    // selection — is byte-identical to the serial double loop.
    std::vector<std::optional<DesignPoint>> cells(ns.size() * fs.size());
    parallelFor(cfg.jobs, cells.size(), [&](std::size_t idx) {
        unsigned n = ns[idx / fs.size()];
        double f = fs[idx % fs.size()];
        cells[idx] = bestDesignAt(eq, enc, n, f, cfg.max_w, probe);
    });

    DseResult result;
    for (const auto &cell : cells) {
        if (cell)
            result.points.push_back(*cell);
    }
    return result;
}

std::vector<DesignPoint>
paretoFrontier(DseResult &result)
{
    // Sort by throughput descending, latency ascending; sweep keeping the
    // running latency minimum.
    std::vector<std::size_t> order(result.points.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a,
                                              std::size_t b) {
        const auto &pa = result.points[a];
        const auto &pb = result.points[b];
        if (pa.throughput_ops != pb.throughput_ops)
            return pa.throughput_ops > pb.throughput_ops;
        return pa.service_time_s < pb.service_time_s;
    });

    std::vector<DesignPoint> frontier;
    double best_latency = std::numeric_limits<double>::infinity();
    for (std::size_t idx : order) {
        auto &p = result.points[idx];
        p.pareto = false;
        if (p.service_time_s < best_latency) {
            best_latency = p.service_time_s;
            p.pareto = true;
            frontier.push_back(p);
        }
    }
    std::sort(frontier.begin(), frontier.end(),
              [](const DesignPoint &a, const DesignPoint &b) {
                  return a.throughput_ops < b.throughput_ops;
              });
    return frontier;
}

std::optional<DesignPoint>
bestUnderLatency(const DseResult &result, double latency_limit_s)
{
    std::optional<DesignPoint> best;
    for (const auto &p : result.points) {
        if (p.service_time_s > latency_limit_s)
            continue;
        if (!best || p.throughput_ops > best->throughput_ops ||
            (p.throughput_ops == best->throughput_ops &&
             p.service_time_s < best->service_time_s)) {
            best = p;
        }
    }
    if (!best)
        return best;
    // Knee tie-break: past the Pareto knee throughput is flat while
    // latency keeps growing (section 4.2); take the lowest-latency design
    // within 0.1% of the best throughput.
    for (const auto &p : result.points) {
        if (p.service_time_s > latency_limit_s)
            continue;
        if (p.throughput_ops >= 0.999 * best->throughput_ops &&
            p.service_time_s < best->service_time_s) {
            best = p;
        }
    }
    return best;
}

std::optional<DesignPoint>
minLatencyDesign(const DseResult &result)
{
    std::optional<DesignPoint> best;
    for (const auto &p : result.points) {
        if (!best || p.service_time_s < best->service_time_s ||
            (p.service_time_s == best->service_time_s &&
             p.throughput_ops > best->throughput_ops)) {
            best = p;
        }
    }
    return best;
}

} // namespace model
} // namespace equinox
