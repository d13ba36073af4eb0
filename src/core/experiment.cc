#include "core/experiment.hh"

#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "obs/metrics_snapshot.hh"

namespace equinox
{
namespace core
{

namespace
{

/** Append a double to a cache key losslessly (hex float). */
void
keyDouble(std::string &key, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%a|", v);
    key += buf;
}

void
keyU64(std::string &key, std::uint64_t v)
{
    key += std::to_string(v);
    key += '|';
}

/**
 * Canonical serialisation of every configuration knob the workload
 * compiler reads. Fields are listed explicitly; when a knob is added
 * to AcceleratorConfig that changes compile output, it must be added
 * here too or the saturation cache can serve stale entries.
 */
std::string
configKey(const sim::AcceleratorConfig &cfg)
{
    std::string key;
    keyU64(key, cfg.n);
    keyU64(key, cfg.m);
    keyU64(key, cfg.w);
    keyDouble(key, cfg.frequency_hz);
    keyU64(key, static_cast<std::uint64_t>(cfg.encoding));
    keyU64(key, cfg.act_buffer_bytes);
    keyU64(key, cfg.weight_buffer_bytes);
    keyU64(key, cfg.instr_buffer_bytes);
    keyU64(key, cfg.simd_rf_bytes);
    keyDouble(key, cfg.train_staging_frac);
    keyU64(key, cfg.simd_lanes);
    keyU64(key, static_cast<std::uint64_t>(cfg.batch_policy));
    keyDouble(key, cfg.batch_timeout_mult);
    keyU64(key, static_cast<std::uint64_t>(cfg.sched_policy));
    keyU64(key, cfg.spike_threshold_batches);
    keyDouble(key, cfg.software_turnaround_s);
    keyDouble(key, cfg.dram.bandwidth_bytes_per_s);
    keyDouble(key, cfg.dram.latency_s);
    keyU64(key, cfg.dram.channels);
    keyDouble(key, cfg.host.bandwidth_bytes_per_s);
    keyDouble(key, cfg.host.latency_s);
    keyU64(key, cfg.host.channels);
    return key;
}

/** Canonical serialisation of a workload model's compile-relevant
 * fields (the name alone is not trusted: tests build ad-hoc models). */
std::string
modelKey(const workload::DnnModel &m)
{
    std::string key = m.name;
    key += '|';
    keyU64(key, static_cast<std::uint64_t>(m.kind));
    keyU64(key, m.rnn.hidden);
    keyU64(key, m.rnn.steps);
    for (unsigned g : m.rnn.gate_groups)
        keyU64(key, g);
    keyDouble(key, m.rnn.simd_passes);
    for (const auto &l : m.cnn.layers) {
        keyU64(key, l.c_in);
        keyU64(key, l.c_out);
        keyU64(key, l.kernel);
        keyU64(key, l.out_h);
        keyU64(key, l.out_w);
        keyU64(key, l.stride);
    }
    keyU64(key, m.cnn.classifier_in);
    keyU64(key, m.cnn.classifier_out);
    keyDouble(key, m.cnn.simd_passes);
    keyU64(key, m.cnn.batch_images);
    keyU64(key, m.cnn.input_bytes);
    for (std::size_t d : m.mlp.dims)
        keyU64(key, d);
    keyDouble(key, m.mlp.simd_passes);
    return key;
}

/** The two scalars an inference compile yields that the analytic
 * queries need; cached per (config, model). */
struct InferenceSummary
{
    double service_time_s = 0.0;
    double saturation_ops_per_s = 0.0;
};

InferenceSummary
cachedInferenceSummary(const sim::AcceleratorConfig &cfg,
                       const workload::DnnModel &model)
{
    static std::map<std::string, InferenceSummary> cache;
    static std::mutex mtx;

    std::string key = configKey(cfg) + '#' + modelKey(model);
    {
        std::lock_guard<std::mutex> lock(mtx);
        auto it = cache.find(key);
        if (it != cache.end())
            return it->second;
    }
    // Compile outside the lock: compiles are deterministic pure
    // functions of the key, so concurrent duplicate work is safe (last
    // writer stores an identical value) and the lock never serialises
    // a multi-second compile.
    workload::Compiler compiler(cfg);
    auto svc = compiler.compileInference(model);
    InferenceSummary summary;
    summary.service_time_s = svc.service_time_s;
    summary.saturation_ops_per_s =
        svc.program.saturationOpRate(cfg.frequency_hz);
    {
        std::lock_guard<std::mutex> lock(mtx);
        cache.emplace(std::move(key), summary);
    }
    return summary;
}

void
validateOrDie(const sim::AcceleratorConfig &cfg,
              const ExperimentOptions &opts)
{
    // Reject unusable user input with the full actionable report before
    // any machinery is built; internal invariants further down still
    // panic, but a bad knob should never get that far.
    if (auto errors = cfg.validate(); !errors.empty()) {
        EQX_FATAL("invalid accelerator configuration '", cfg.name,
                  "':\n", sim::formatConfigErrors(errors));
    }
    if (auto errors = opts.fault_plan.validate(); !errors.empty()) {
        std::string joined;
        for (const auto &e : errors)
            joined += "\n  " + e;
        EQX_FATAL("invalid fault plan:", joined);
    }
}

} // namespace

double
saturationOpRate(const sim::AcceleratorConfig &cfg,
                 const workload::DnnModel &model)
{
    return cachedInferenceSummary(cfg, model).saturation_ops_per_s;
}

double
latencyTargetSeconds(const sim::AcceleratorConfig &reference,
                     const workload::DnnModel &model)
{
    return 10.0 * cachedInferenceSummary(reference, model).service_time_s;
}

CompiledWorkload
compileWorkload(const sim::AcceleratorConfig &cfg,
                const ExperimentOptions &opts)
{
    workload::Compiler compiler(cfg);
    CompiledWorkload compiled;
    compiled.inference = compiler.compileInference(opts.model);
    if (opts.train_model) {
        compiled.training = compiler.compileTraining(
            *opts.train_model, opts.train_batch, opts.train_opts);
    }
    return compiled;
}

LoadPointResult
runAtLoad(const sim::AcceleratorConfig &cfg, double load,
          const ExperimentOptions &opts, const CompiledWorkload &compiled)
{
    validateOrDie(cfg, opts);

    sim::Accelerator accel(cfg);
    double service_s = compiled.inference.service_time_s;
    accel.installInference(compiled.inference);
    if (compiled.training)
        accel.installTraining(*compiled.training);
    if (opts.trace_sink)
        accel.setTraceSink(opts.trace_sink);

    sim::RunSpec spec;
    spec.arrival_rate_per_s = load * accel.maxRequestRate();
    spec.warmup_requests = opts.warmup_requests;
    spec.warmup_s = opts.warmup_s;
    spec.measure_requests = opts.measure_requests;
    spec.min_measure_s = opts.min_measure_s;
    spec.measure_iterations = opts.measure_iterations;
    spec.max_sim_s = opts.max_sim_s;
    spec.seed = opts.seed;
    spec.fast_forward = opts.fast_forward;
    spec.faults = opts.fault_plan;

    LoadPointResult res;
    res.load = load;
    res.sim = accel.run(spec);
    res.inference_tops = res.sim.inference_throughput_ops / 1e12;
    res.training_tops = res.sim.training_throughput_ops / 1e12;
    res.p99_ms = res.sim.p99_latency_s * 1e3;
    res.mean_ms = res.sim.mean_latency_s * 1e3;
    res.max_inference_tops = accel.maxInferenceOpRate() / 1e12;
    res.service_time_ms = service_s * 1e3;
    return res;
}

LoadPointResult
runAtLoad(const sim::AcceleratorConfig &cfg, double load,
          const ExperimentOptions &opts)
{
    validateOrDie(cfg, opts);
    return runAtLoad(cfg, load, opts, compileWorkload(cfg, opts));
}

std::vector<LoadPointResult>
runLoadSweep(const sim::AcceleratorConfig &cfg,
             const std::vector<double> &loads,
             const ExperimentOptions &opts)
{
    validateOrDie(cfg, opts);
    // Compile once per (config, options) pair; every load point
    // installs a copy of the same descriptors.
    CompiledWorkload compiled = compileWorkload(cfg, opts);
    std::vector<LoadPointResult> out(loads.size());
    // A trace sink is shared mutable state: force the (byte-identical)
    // serial path so its event stream stays in simulation order.
    std::size_t jobs = opts.trace_sink ? 1 : opts.jobs;
    parallelFor(jobs, loads.size(), [&](std::size_t i) {
        out[i] = runAtLoad(cfg, loads[i], opts, compiled);
    });
    return out;
}

void
addLoadPoint(obs::MetricsSnapshot &snap, const std::string &label,
             const LoadPointResult &r)
{
    obs::Json point = obs::Json::object();
    point["load"] = r.load;
    point["inference_tops"] = r.inference_tops;
    point["training_tops"] = r.training_tops;
    point["p99_ms"] = r.p99_ms;
    point["mean_ms"] = r.mean_ms;
    point["max_inference_tops"] = r.max_inference_tops;
    point["service_time_ms"] = r.service_time_ms;

    const sim::SimResult &s = r.sim;
    point["sim_seconds"] = s.sim_seconds;
    point["completed_requests"] = s.completed_requests;
    point["offered_rate_per_s"] = s.offered_rate_per_s;
    point["p50_latency_s"] = s.p50_latency_s;
    point["max_latency_s"] = s.max_latency_s;
    point["mean_service_s"] = s.mean_service_s;
    point["batches_formed"] = s.batches_formed;
    point["batches_incomplete"] = s.batches_incomplete;
    point["avg_batch_fill"] = s.avg_batch_fill;
    point["dram_utilization"] = s.dram_utilization;
    point["host_bytes"] = s.host_bytes;
    point["training_iterations"] = s.training_iterations;
    point["availability"] = s.availability;

    obs::Json &breakdown = point["mmu_breakdown"];
    breakdown["working"] =
        s.mmu_breakdown.get(stats::CycleClass::Working);
    breakdown["dummy"] = s.mmu_breakdown.get(stats::CycleClass::Dummy);
    breakdown["idle"] = s.mmu_breakdown.get(stats::CycleClass::Idle);
    breakdown["other"] = s.mmu_breakdown.get(stats::CycleClass::Other);

    for (const auto &svc : s.per_service) {
        obs::Json entry = obs::Json::object();
        entry["model"] = svc.model_name;
        entry["completed"] = svc.completed;
        entry["mean_latency_s"] = svc.mean_latency_s;
        entry["p99_latency_s"] = svc.p99_latency_s;
        point["services"]["svc" + std::to_string(svc.ctx)] =
            std::move(entry);
    }

    if (s.faults.totalFaults() > 0 || s.faults.recoveryEvents() > 0) {
        obs::Json &faults = point["faults"];
        faults["total"] = s.faults.totalFaults();
        faults["recovery_events"] = s.faults.recoveryEvents();
        faults["shed_requests"] = s.faults.shed_requests;
        faults["downtime_cycles"] =
            static_cast<std::uint64_t>(s.faults.downtime_cycles);
    }

    // Memory-hierarchy counters ride along only when a non-trivial
    // hierarchy ran: passthrough load points keep the exact schema
    // they had before the subsystem existed.
    if (s.mem.active) {
        obs::Json &m = point["mem"];
        m["llc_hits"] = s.mem.llc_hits;
        m["llc_misses"] = s.mem.llc_misses;
        m["llc_evictions"] = s.mem.llc_evictions;
        m["hit_rate"] = s.mem.hitRate();
        m["prefetch_issued"] = s.mem.prefetch_issued;
        m["prefetch_useful"] = s.mem.prefetch_useful;
        m["prefetch_accuracy"] = s.mem.prefetchAccuracy();
        m["sp_fill_stalls"] = s.mem.sp_fill_stalls;
        m["sp_bank_switches"] = s.mem.sp_bank_switches;
        m["sp_high_water"] = s.mem.sp_high_water;
        m["wb_combines"] = s.mem.wb_combines;
        m["wb_bytes_in"] = s.mem.wb_bytes_in;
        m["wb_bytes_drained"] = s.mem.wb_bytes_drained;
        m["dram_transfers"] = s.mem.dram_transfers;
    }

    snap.section("sweeps")[label].append(std::move(point));
}

void
addLoadSweep(obs::MetricsSnapshot &snap, const std::string &label,
             const std::vector<LoadPointResult> &results)
{
    for (const auto &r : results)
        addLoadPoint(snap, label, r);
}

bool
writeCsv(const std::string &path,
         const std::vector<LoadPointResult> &results)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "load,inference_tops,training_tops,p99_ms,mean_ms,"
           "service_ms,batch_fill,dram_utilization\n";
    for (const auto &r : results) {
        out << r.load << ',' << r.inference_tops << ','
            << r.training_tops << ',' << r.p99_ms << ',' << r.mean_ms
            << ',' << r.service_time_ms << ',' << r.sim.avg_batch_fill
            << ',' << r.sim.dram_utilization << '\n';
    }
    return static_cast<bool>(out);
}

} // namespace core
} // namespace equinox
