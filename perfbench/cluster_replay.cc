#include "cluster_replay.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "cluster/router.hh"
#include "common/logging.hh"
#include "common/units.hh"
#include "sim/accelerator.hh"

namespace perfbench
{

using namespace equinox;

namespace
{

std::uint64_t
ceilDiv(std::uint64_t a, std::uint64_t b)
{
    return b ? (a + b - 1) / b : a;
}

} // namespace

cluster::ClusterPointResult
replayCluster(const sim::AcceleratorConfig &cfg,
              const cluster::ClusterSpec &spec, double load,
              const core::ExperimentOptions &opts,
              const core::CompiledWorkload &compiled, Tracer &tracer)
{
    EQX_ASSERT(!spec.fleet.enabled(),
               "the replay covers the flat Router and ControlPlane paths");

    // Rate arithmetic, chaos expansion and outage/surge conversion are
    // Cluster::run's, operation for operation.
    const std::size_t n = spec.replicas;
    const double f = cfg.frequency_hz;
    const isa::CompiledProgram &prog = compiled.inference.program;
    double op_rate = static_cast<double>(prog.totalRealOps()) /
                     static_cast<double>(prog.mmuBusyCycles()) * f;
    double mu_req = op_rate / prog.opsPerRequest();
    double per_replica_rate = load * mu_req;
    Tick max_ticks = units::secondsToCycles(opts.max_sim_s, f);

    fault::MaterializedChaos chaos;
    const bool chaos_on = spec.chaos.enabled();
    if (chaos_on)
        chaos = fault::materializeChaos(spec.chaos, n, opts.max_sim_s);
    std::vector<cluster::RouterOutage> outages;
    for (const auto &o : spec.outages) {
        outages.push_back({o.replica, units::secondsToCycles(o.from_s, f),
                           units::secondsToCycles(o.to_s, f)});
    }
    for (const auto &o : chaos.outages) {
        outages.push_back({o.replica, units::secondsToCycles(o.from_s, f),
                           units::secondsToCycles(o.to_s, f)});
    }
    std::vector<cluster::RouterSurge> surges;
    for (const auto &s : chaos.surges) {
        surges.push_back({units::secondsToCycles(s.from_s, f),
                          units::secondsToCycles(s.to_s, f), s.factor});
    }
    double rate_cycle = per_replica_rate * static_cast<double>(n) / f;
    if (spec.arrival_process == sim::ArrivalProcess::Bursty)
        rate_cycle *= spec.burst_factor;

    const bool cp_on = spec.resilience.enabled();
    cluster::RouterResult routed;
    cluster::ResilienceStats rstats;
    double overload_frac = 0.0;
    if (cp_on) {
        cluster::ControlPlane cp(spec.resilience, spec.policy, n,
                                 mu_req / f, spec.latency_window, outages);
        {
            ScopedSpan span(&tracer, "cluster.control_plane");
            routed = cp.route(rate_cycle, opts.seed, max_ticks, surges);
        }
        rstats = cp.stats();
        overload_frac = cp.overloadFraction();
        tracer.count("cluster.control_plane.shed",
                     static_cast<double>(rstats.totalShed()));
        tracer.count("cluster.control_plane.retries",
                     static_cast<double>(rstats.retry_attempts));
        tracer.count("cluster.control_plane.hedges",
                     static_cast<double>(rstats.hedges_issued));
        tracer.count("cluster.control_plane.dispatch_heap_high_water",
                     static_cast<double>(rstats.dispatch_heap_high_water));
    } else {
        // Router::route is generateCandidateTicks followed by one
        // pick() per candidate; split here so each half is timed.
        cluster::Router router(spec.policy, n, mu_req / f,
                               spec.latency_window, outages);
        std::vector<Tick> ticks;
        {
            ScopedSpan span(&tracer, "cluster.gen");
            ticks = cluster::generateCandidateTicks(rate_cycle, opts.seed,
                                                    max_ticks, surges);
        }
        routed.traces.resize(n);
        routed.assigned.assign(n, 0);
        routed.generated = ticks.size();
        {
            ScopedSpan span(&tracer, "cluster.route");
            for (Tick t : ticks) {
                std::size_t r = router.pick(t);
                if (r != cluster::kNoReplica) {
                    routed.traces[r].push_back(t);
                    ++routed.assigned[r];
                }
            }
        }
        routed.shed = router.shedCount();
        routed.rerouted = router.reroutedCount();
        tracer.count("cluster.gen.candidates",
                     static_cast<double>(ticks.size()));
        tracer.count("cluster.route.picks",
                     static_cast<double>(ticks.size()));
    }

    // Training coordinator: the least-loaded replicas train.
    std::vector<char> trains(n, 0);
    if (compiled.training) {
        std::size_t k = spec.train_replicas == 0
                            ? n
                            : std::min(spec.train_replicas, n);
        if (cp_on && spec.resilience.shed_training_under_overload) {
            auto shed = std::min(
                k, static_cast<std::size_t>(std::floor(
                       overload_frac * static_cast<double>(k))));
            rstats.training_replicas_shed = shed;
            k -= shed;
        }
        std::vector<std::size_t> order(n);
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return routed.assigned[a] < routed.assigned[b];
                         });
        for (std::size_t i = 0; i < k; ++i)
            trains[order[i]] = 1;
    }

    std::vector<cluster::ReplicaOutcome> out(n);
    for (std::size_t r = 0; r < n; ++r) {
        std::unique_ptr<sim::Accelerator> accel;
        {
            ScopedSpan span(&tracer, "sim.install");
            accel = std::make_unique<sim::Accelerator>(cfg);
            accel->installInference(compiled.inference);
            if (trains[r])
                accel->installTraining(*compiled.training);
        }

        sim::RunSpec rs;
        rs.arrival_rate_per_s =
            routed.traces[r].empty() ? 0.0 : per_replica_rate;
        rs.arrival_process = spec.arrival_process;
        rs.burst_factor = spec.burst_factor;
        rs.burst_period_s = spec.burst_period_s;
        rs.arrival_trace_ticks = routed.traces[r];
        rs.warmup_requests = ceilDiv(opts.warmup_requests, n);
        rs.warmup_s = opts.warmup_s;
        rs.measure_requests = ceilDiv(opts.measure_requests, n);
        rs.min_measure_s = opts.min_measure_s;
        rs.measure_iterations = opts.measure_iterations;
        rs.max_sim_s = opts.max_sim_s;
        rs.seed = opts.seed + r;
        rs.fast_forward = opts.fast_forward;
        if (!spec.replica_faults.empty()) {
            rs.faults = spec.replica_faults[r];
        } else {
            rs.faults = opts.fault_plan;
            if (r > 0)
                rs.faults.seed += static_cast<std::uint64_t>(r) * 9973;
        }
        if (chaos_on) {
            for (const auto &sf : chaos.replica_faults[r])
                rs.faults.scheduled.push_back(sf);
        }

        cluster::ReplicaOutcome &o = out[r];
        o.replica = r;
        o.assigned_candidates = routed.assigned[r];
        o.training = trains[r] != 0;
        {
            ScopedSpan span(&tracer, "sim.run");
            o.sim = accel->run(rs);
        }
        tracer.count("sim.events",
                     static_cast<double>(o.sim.events_dispatched));
        tracer.count("sim.events_inlined",
                     static_cast<double>(o.sim.events_inlined));
        tracer.count("sim.sim_s", o.sim.sim_seconds);
    }

    cluster::ClusterPointResult res;
    res.load = load;
    res.replicas = n;
    res.policy = spec.policy;
    res.generated_candidates = routed.generated;
    res.router_shed = routed.shed;
    res.rerouted = routed.rerouted;
    {
        ScopedSpan span(&tracer, "stats.merge");
        for (const auto &o : out) {
            const sim::SimResult &s = o.sim;
            res.aggregate_inference_ops += s.inference_throughput_ops;
            res.aggregate_training_ops += s.training_throughput_ops;
            res.completed_requests += s.completed_requests;
            res.training_iterations += s.training_iterations;
            res.committed_training_iterations +=
                s.committed_training_iterations;
            res.merged_latency_cycles.merge(s.latency_cycles);
            res.admitted_requests += s.admitted_requests;
            res.retired_requests += s.retired_requests;
            res.inflight_requests += s.inflight_requests;
            res.shed_requests += s.faults.shed_requests;
            res.faults.merge(s.faults);
        }
        res.aggregate_inference_tops = res.aggregate_inference_ops / 1e12;
        res.aggregate_training_tops = res.aggregate_training_ops / 1e12;
        const double inv_f = 1.0 / f;
        if (res.merged_latency_cycles.count() > 0) {
            res.mean_latency_s = res.merged_latency_cycles.mean() * inv_f;
            res.p50_latency_s =
                res.merged_latency_cycles.percentile(0.5) * inv_f;
            res.p99_latency_s =
                res.merged_latency_cycles.percentile(0.99) * inv_f;
            res.max_latency_s = res.merged_latency_cycles.max() * inv_f;
        }
    }
    tracer.count("stats.merge.samples",
                 static_cast<double>(res.merged_latency_cycles.count()));
    if (!cp_on) {
        std::uint64_t assigned = 0;
        for (const auto &o : out)
            assigned += o.assigned_candidates;
        tracer.count("cluster.route.assigned",
                     static_cast<double>(assigned));
        tracer.count("cluster.route.admitted",
                     static_cast<double>(res.admitted_requests));
        tracer.count("cluster.route.completed",
                     static_cast<double>(res.completed_requests));
    }
    res.control_plane = cp_on;
    res.resilience = rstats;
    res.per_replica = std::move(out);
    return res;
}

} // namespace perfbench
