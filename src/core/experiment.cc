#include "core/experiment.hh"

#include <fstream>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "obs/metrics_snapshot.hh"

namespace equinox
{
namespace core
{

namespace
{

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
    workload::Compiler compiler(cfg);
    return compiler.compileInference(model).program.saturationOpRate(
        cfg.frequency_hz);
}

double
latencyTargetSeconds(const sim::AcceleratorConfig &reference,
                     const workload::DnnModel &model)
{
    workload::Compiler compiler(reference);
    return 10.0 * compiler.compileInference(model).service_time_s;
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
