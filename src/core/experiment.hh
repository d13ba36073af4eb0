/**
 * @file
 * Experiment harness: the common load-sweep machinery behind the
 * evaluation's figures and tables. Builds an accelerator from a
 * configuration, compiles and installs the workloads, converts a load
 * fraction into a Poisson arrival rate, runs the simulation, and reports
 * derived metrics.
 */

#ifndef EQUINOX_CORE_EXPERIMENT_HH
#define EQUINOX_CORE_EXPERIMENT_HH

#include <optional>
#include <string>
#include <vector>

#include "fault/fault_plan.hh"
#include "sim/accelerator.hh"
#include "sim/config.hh"
#include "workload/compiler.hh"
#include "workload/dnn_model.hh"

namespace equinox
{
namespace obs
{
class MetricsSnapshot;
}

namespace core
{

/** Knobs shared by all experiments. */
struct ExperimentOptions
{
    /** Inference workload (default LSTM-2048). */
    workload::DnnModel model = workload::DnnModel::lstm2048();
    /** Piggybacked training workload; nullopt = inference only. */
    std::optional<workload::DnnModel> train_model;
    std::size_t train_batch = 128;
    /** Training-lowering knobs (ablations). */
    workload::TrainingCompileOptions train_opts;

    std::uint64_t warmup_requests = 300;
    double warmup_s = 0.0;
    std::uint64_t measure_requests = 3000;
    double min_measure_s = 0.0;
    std::uint64_t measure_iterations = 15;
    double max_sim_s = 30.0;
    std::uint64_t seed = 1;

    /**
     * Forwarded to RunSpec::fast_forward on every run this experiment
     * spawns (single-accelerator and per-replica cluster runs alike).
     * On by default; byte-identical either way. See RunSpec.
     */
    bool fast_forward = true;

    /**
     * Faults to inject and recovery policies to answer them with. The
     * default plan injects nothing, keeping fault-free experiments
     * byte-identical to a build without the fault layer.
     */
    fault::FaultPlan fault_plan;

    /**
     * Worker threads runLoadSweep fans the load points across. Every
     * point is a self-contained simulation (own Accelerator, own
     * seeded Rng streams), so the parallel sweep is byte-identical to
     * the serial one. 1 (the default) takes the exact serial code
     * path; 0 means defaultJobs() (EQX_JOBS or hardware concurrency).
     */
    std::size_t jobs = 1;

    /**
     * Optional trace sink installed on every Accelerator a run builds
     * (e.g. obs::ChromeTraceSink behind a bench's `--trace`). Not
     * owned; must outlive the runs. Observation only -- installing a
     * sink never changes simulated behaviour -- but the sink object
     * itself is stateful, so runLoadSweep degrades to serial (which is
     * byte-identical anyway) whenever one is installed.
     */
    sim::TraceSink *trace_sink = nullptr;
};

/**
 * The workloads of one (config, options) pair, compiled once and
 * reused across load points: runAtLoad installs copies of these
 * descriptors instead of re-running the compiler per point. Compile
 * output is a pure function of (config, model, train options), so
 * reuse is byte-identical to recompiling.
 */
struct CompiledWorkload
{
    sim::InferenceServiceDesc inference;
    std::optional<sim::TrainingServiceDesc> training;
};

/** Compile the workloads of (cfg, opts) for reuse across load points. */
CompiledWorkload compileWorkload(const sim::AcceleratorConfig &cfg,
                                 const ExperimentOptions &opts);

/** One measured load point. */
struct LoadPointResult
{
    double load = 0.0;           //!< offered fraction of max throughput
    sim::SimResult sim;
    double inference_tops = 0.0; //!< achieved inference TOp/s
    double training_tops = 0.0;  //!< achieved training TOp/s
    double p99_ms = 0.0;
    double mean_ms = 0.0;
    double max_inference_tops = 0.0; //!< the config's saturation rate
    double service_time_ms = 0.0;    //!< analytic single-batch service
};

/**
 * Run @p cfg at @p load (fraction of the workload's saturation request
 * rate; 0 = training only).
 */
LoadPointResult runAtLoad(const sim::AcceleratorConfig &cfg, double load,
                          const ExperimentOptions &opts = {});

/**
 * Like runAtLoad above but reusing @p compiled (from compileWorkload on
 * the same cfg/opts) instead of compiling per point.
 */
LoadPointResult runAtLoad(const sim::AcceleratorConfig &cfg, double load,
                          const ExperimentOptions &opts,
                          const CompiledWorkload &compiled);

/**
 * Run a whole load sweep: workloads are compiled once, then the points
 * fan out across opts.jobs workers with results in input order.
 */
std::vector<LoadPointResult> runLoadSweep(
    const sim::AcceleratorConfig &cfg, const std::vector<double> &loads,
    const ExperimentOptions &opts = {});

/**
 * Analytic saturation inference throughput (ops/s) of cfg on model.
 * Compiles the inference program on every call; a caller that already
 * holds one reads its `program.saturationOpRate(f)` instead.
 */
double saturationOpRate(const sim::AcceleratorConfig &cfg,
                        const workload::DnnModel &model);

/**
 * The paper's SLO: 99th-percentile latency no worse than 10x the mean
 * service time of the model on the reference (Equinox_500us) config.
 */
double latencyTargetSeconds(const sim::AcceleratorConfig &reference,
                            const workload::DnnModel &model);

/**
 * Write a load sweep as CSV (header + one row per point) for external
 * plotting; returns false when the file cannot be opened.
 */
bool writeCsv(const std::string &path,
              const std::vector<LoadPointResult> &results);

/**
 * Append one measured load point under "sweeps.<label>" in @p snap:
 * the derived metrics, the latency percentiles, the Figure-8 cycle
 * breakdown, and (when faults fired) the fault counters. Field order
 * and formatting are deterministic, so byte-identical results produce
 * byte-identical snapshots regardless of the jobs count that computed
 * them.
 */
void addLoadPoint(obs::MetricsSnapshot &snap, const std::string &label,
                  const LoadPointResult &r);

/** addLoadPoint over a whole sweep, in input order. */
void addLoadSweep(obs::MetricsSnapshot &snap, const std::string &label,
                  const std::vector<LoadPointResult> &results);

} // namespace core
} // namespace equinox

#endif // EQUINOX_CORE_EXPERIMENT_HH
