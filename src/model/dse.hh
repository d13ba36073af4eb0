/**
 * @file
 * Design-space exploration (section 4): sweep the array batch dimension n
 * and the design frequency, maximise (m, w) under the area/power
 * envelopes, estimate each design's LSTM service time, and extract the
 * Pareto-optimal latency/throughput frontier (Figure 6 / Table 1).
 *
 * Each (n, f) grid cell builds one AnalyticalModel::Cell and walks w
 * over it, so the cell's constants are computed once rather than per w;
 * the LSTM-2048 probe model is built once per sweep and compiled once
 * per cell, on the cell's best design.
 */

#ifndef EQUINOX_MODEL_DSE_HH
#define EQUINOX_MODEL_DSE_HH

#include <optional>
#include <vector>

#include "model/analytical.hh"
#include "sim/config.hh"

namespace equinox
{
namespace model
{

/** Sweep ranges. */
struct DseConfig
{
    /** n values; empty = {1 .. 256}. */
    std::vector<unsigned> n_values;
    /** Frequencies; empty = {532, 610, 700, 800, 1000, 1200, 1600,
     *  2000, 2400} MHz. */
    std::vector<double> frequencies;
    unsigned max_w = 4096;
    /**
     * Worker threads the (n, frequency) grid cells fan out across.
     * Each cell evaluates the analytic model and compiles the LSTM
     * probe independently; results are collected in grid order, so any
     * jobs value yields byte-identical output. 1 = serial code path,
     * 0 = defaultJobs().
     */
    std::size_t jobs = 1;
};

/** Sweep output. */
struct DseResult
{
    /** Best design per (n, frequency) pair, all feasible. */
    std::vector<DesignPoint> points;
};

/** Run the sweep for one encoding. */
DseResult exploreDesignSpace(const TechParams &tech, arith::Encoding enc,
                             const DseConfig &cfg = {});

/** Mark and return the Pareto frontier (max throughput at min latency). */
std::vector<DesignPoint> paretoFrontier(DseResult &result);

/**
 * Best design with service time below @p latency_limit_s
 * (infinity = unconstrained); nullopt when none qualifies.
 */
std::optional<DesignPoint> bestUnderLatency(const DseResult &result,
                                            double latency_limit_s);

/** The minimum-service-time design. */
std::optional<DesignPoint> minLatencyDesign(const DseResult &result);

/** Convert a design point into a simulator configuration. */
sim::AcceleratorConfig toAcceleratorConfig(const DesignPoint &p,
                                           const std::string &name);

} // namespace model
} // namespace equinox

#endif // EQUINOX_MODEL_DSE_HH
