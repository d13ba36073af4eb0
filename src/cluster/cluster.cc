#include "cluster/cluster.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "cluster/arrival_feed.hh"
#include "cluster/fleet.hh"
#include "cluster/router.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/units.hh"
#include "fault/traffic_mix.hh"
#include "sim/accelerator.hh"

namespace equinox
{
namespace cluster
{

namespace
{

std::uint64_t
ceilDiv(std::uint64_t a, std::uint64_t b)
{
    return b ? (a + b - 1) / b : a;
}

} // namespace

std::vector<std::string>
ClusterSpec::validate() const
{
    std::vector<std::string> errors;
    if (replicas < 1)
        errors.push_back("replicas must be >= 1");
    if (latency_window < 1)
        errors.push_back("latency_window must be >= 1");
    if (burst_factor < 1.0)
        errors.push_back("burst_factor must be >= 1");
    if (arrival_process == sim::ArrivalProcess::Bursty &&
        burst_period_s <= 0.0)
        errors.push_back("bursty arrivals need burst_period_s > 0");
    for (const auto &o : outages) {
        if (o.replica >= replicas)
            errors.push_back("outage names replica " +
                             std::to_string(o.replica) + " but only " +
                             std::to_string(replicas) + " exist");
        if (o.from_s < 0.0 || o.to_s < o.from_s)
            errors.push_back("outage window [" +
                             std::to_string(o.from_s) + ", " +
                             std::to_string(o.to_s) +
                             ") must be ordered and non-negative");
    }
    if (!replica_faults.empty() && replica_faults.size() != replicas)
        errors.push_back(
            "replica_faults must be empty or name every replica (" +
            std::to_string(replica_faults.size()) + " plans for " +
            std::to_string(replicas) + " replicas)");
    for (auto &e : resilience.validate())
        errors.push_back("resilience: " + std::move(e));
    for (auto &e : chaos.validate())
        errors.push_back("chaos: " + std::move(e));
    for (auto &e : fleet.validate())
        errors.push_back("fleet: " + std::move(e));
    if (fleet.shards > replicas)
        errors.push_back("fleet: " + std::to_string(fleet.shards) +
                         " shards need at least that many replicas (" +
                         std::to_string(replicas) + " configured)");
    if (fleet.autoscaler.enabled &&
        fleet.autoscaler.min_replicas > replicas)
        errors.push_back(
            "fleet: autoscaler min_replicas exceeds the fleet size");
    for (const auto &o : chaos.scheduled_outages) {
        if (o.replica != fault::kEveryReplica && o.replica >= replicas)
            errors.push_back("chaos scheduled outage names replica " +
                             std::to_string(o.replica) + " but only " +
                             std::to_string(replicas) + " exist");
    }
    return errors;
}

Cluster::Cluster(sim::AcceleratorConfig cfg, ClusterSpec spec)
    : cfg_(std::move(cfg)), spec_(std::move(spec))
{
    if (auto errors = cfg_.validate(); !errors.empty()) {
        EQX_FATAL("invalid accelerator configuration '", cfg_.name,
                  "':\n", sim::formatConfigErrors(errors));
    }
    if (auto errors = spec_.validate(); !errors.empty()) {
        std::string joined;
        for (const auto &e : errors)
            joined += "\n  " + e;
        EQX_FATAL("invalid cluster spec:", joined);
    }
    for (const auto &plan : spec_.replica_faults) {
        if (auto errors = plan.validate(); !errors.empty()) {
            std::string joined;
            for (const auto &e : errors)
                joined += "\n  " + e;
            EQX_FATAL("invalid replica fault plan:", joined);
        }
    }
}

ClusterPointResult
Cluster::run(double load, const core::ExperimentOptions &opts) const
{
    return run(load, opts, core::compileWorkload(cfg_, opts));
}

ClusterPointResult
Cluster::run(double load, const core::ExperimentOptions &opts,
             const core::CompiledWorkload &compiled,
             const std::vector<sim::TraceSink *> &replica_sinks) const
{
    if (auto errors = opts.fault_plan.validate(); !errors.empty()) {
        std::string joined;
        for (const auto &e : errors)
            joined += "\n  " + e;
        EQX_FATAL("invalid fault plan:", joined);
    }

    const std::size_t n = spec_.replicas;
    const double f = cfg_.frequency_hz;

    // One replica's saturation request rate, with the exact arithmetic
    // of Accelerator::maxRequestRate() so a 1-replica cluster offers
    // bit-identical rates to the single-accelerator path.
    const isa::CompiledProgram &prog = compiled.inference.program;
    double mu_req = prog.saturationOpRate(f) / prog.opsPerRequest();
    double per_replica_rate = load * mu_req;
    Tick max_ticks = units::secondsToCycles(opts.max_sim_s, f);

    // Cluster-scope chaos: expand the plan into concrete outage
    // windows, per-replica scheduled faults, and arrival surges. A
    // default plan skips this entirely, so chaos-free runs stay
    // byte-identical to a build without the subsystem.
    fault::MaterializedChaos chaos;
    const bool chaos_on = spec_.chaos.enabled();
    if (chaos_on)
        chaos = fault::materializeChaos(spec_.chaos, n, opts.max_sim_s);

    std::vector<RouterOutage> outages;
    for (const auto &o : spec_.outages) {
        outages.push_back({o.replica, units::secondsToCycles(o.from_s, f),
                           units::secondsToCycles(o.to_s, f)});
    }
    for (const auto &o : chaos.outages) {
        outages.push_back({o.replica, units::secondsToCycles(o.from_s, f),
                           units::secondsToCycles(o.to_s, f)});
    }
    std::vector<RouterSurge> surges;
    for (const auto &s : chaos.surges) {
        surges.push_back({units::secondsToCycles(s.from_s, f),
                          units::secondsToCycles(s.to_s, f), s.factor});
    }
    // Traffic mixes (diurnal swings, flash crowds, tenant blends)
    // flatten into the same surge-window thinning mechanism chaos
    // flash crowds use; overlapping chaos windows compose by max, the
    // existing rule. A default mix materializes nothing.
    if (spec_.fleet.traffic.enabled()) {
        for (const auto &s : fault::materializeTraffic(
                 spec_.fleet.traffic, opts.max_sim_s)) {
            surges.push_back({units::secondsToCycles(s.from_s, f),
                              units::secondsToCycles(s.to_s, f),
                              s.factor});
        }
    }

    // Route the global candidate stream through the one pipeline:
    // the optional ControlPlane stage (admission, retries, hedging,
    // breakers) over one FleetRouter -- max(shards, 1) shards, so a
    // flat spec is the one-shard case, plus the autoscaler when
    // enabled. `load` is the offered fraction of the AGGREGATE
    // capacity, so the stream runs at per-replica rate x N; bursty
    // mode draws candidates at the peak rate and the replicas thin
    // them at arrival, mirroring the single-accelerator generator. All
    // knobs convert to the cycle domain here; the router never sees
    // seconds.
    double rate_cycle =
        per_replica_rate * static_cast<double>(n) / f;
    if (spec_.arrival_process == sim::ArrivalProcess::Bursty)
        rate_cycle *= spec_.burst_factor;
    FleetRouter::Config fc;
    fc.replica_policy = spec_.policy;
    fc.shard_policy = spec_.fleet.shard_policy;
    fc.replicas = n;
    fc.shards = std::max<std::size_t>(spec_.fleet.shards, 1);
    fc.service_rate_per_cycle = mu_req / f;
    fc.latency_window = spec_.latency_window;
    const AutoscalerSpec &as = spec_.fleet.autoscaler;
    if (as.enabled) {
        fc.autoscale = true;
        fc.min_active = as.min_replicas;
        fc.max_active = as.max_replicas;
        fc.initial_active = as.initial_replicas;
        fc.target_p99_cycles = as.target_p99_s * f;
        fc.low_watermark = as.low_watermark;
        fc.target_utilization = as.target_utilization;
        fc.decision_interval = std::max<Tick>(
            units::secondsToCycles(as.decision_interval_s, f), 1);
        fc.cooldown = units::secondsToCycles(as.cooldown_s, f);
        fc.warmup = units::secondsToCycles(as.warmup_s, f);
        fc.estimate_window = as.estimate_window;
        fc.min_samples = as.min_samples;
    }
    // The router outlives routing: the training coordinator and the
    // per-shard/autoscaler reporting below query it. The feed routes
    // the candidate stream through it, or through the control plane
    // over it, as far as the replicas read.
    FleetRouter router(fc, outages);
    const bool cp_on = spec_.resilience.enabled();
    std::optional<ControlPlane> cp;
    if (cp_on)
        cp.emplace(spec_.resilience, router);
    ArrivalFeed feed(router, cp ? &*cp : nullptr, rate_cycle, opts.seed,
                     max_ticks, surges);

    // Training coordinator: place the piggybacked training service on
    // the replicas the router loaded least -- most free cycles, the
    // "training for free" invariant at fleet scale. Stable sort with
    // an index tiebreak keeps the placement deterministic. A placement
    // that picks a subset reads full-horizon counts, so the feed
    // routes to the end first; otherwise every replica trains and the
    // replicas start at once, pulling only what they read.
    const bool place_by_counts =
        compiled.training &&
        ((spec_.train_replicas > 0 && spec_.train_replicas < n) ||
         (cp_on && spec_.resilience.shed_training_under_overload) ||
         as.enabled);
    std::vector<char> trains(n, compiled.training && !place_by_counts);
    std::size_t training_replicas_shed = 0;
    if (place_by_counts) {
        feed.routeToEnd();
        std::size_t k = spec_.train_replicas == 0
                            ? n
                            : std::min(spec_.train_replicas, n);
        // Graceful degradation: the fraction of the run the fleet
        // spent over the overload threshold sheds that fraction of
        // the training replicas -- training hands back its free
        // cycles before inference suffers.
        if (cp_on && spec_.resilience.shed_training_under_overload) {
            training_replicas_shed = std::min(
                k, static_cast<std::size_t>(std::floor(
                       cp->overloadFraction() * static_cast<double>(k))));
            k -= training_replicas_shed;
        }
        std::vector<std::size_t> order(n);
        std::iota(order.begin(), order.end(), std::size_t{0});
        if (as.enabled) {
            // Replicas the autoscaler never powered run no traffic;
            // placing training there would model training on machines
            // that do not exist. Restrict the coordinator to the
            // ever-provisioned set.
            order.erase(std::remove_if(order.begin(), order.end(),
                                       [&](std::size_t r) {
                                           return !router.everActive(r);
                                       }),
                        order.end());
            k = std::min(k, order.size());
        }
        const std::vector<std::uint64_t> &assigned = feed.assigned();
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return assigned[a] < assigned[b];
                         });
        for (std::size_t i = 0; i < k; ++i)
            trains[order[i]] = 1;
    }

    // Run the replicas on min(jobs, n) workers, each taking the next
    // unclaimed replica. Each run is self-contained (own Accelerator,
    // own slice of the feed, optional own sink), so the fan-out is
    // byte-identical to a serial loop.
    std::vector<ReplicaOutcome> out(n);
    parallelFor(opts.jobs, n, [&](std::size_t r) {
        sim::Accelerator accel(cfg_);
        accel.installInference(compiled.inference);
        if (trains[r])
            accel.installTraining(*compiled.training);
        if (r < replica_sinks.size() && replica_sinks[r])
            accel.setTraceSink(replica_sinks[r]);

        sim::RunSpec rs;
        // A replica the router sends nothing all run (dead all run, or
        // never activated by the autoscaler) must offer rate 0: the
        // dispatcher falls back to stochastic draws at the given rate
        // without an arrival source, and the replica would invent
        // traffic the router never sent it.
        const bool fed = feed.hasNext(r);
        rs.arrival_rate_per_s = fed ? per_replica_rate : 0.0;
        rs.arrival_process = spec_.arrival_process;
        rs.burst_factor = spec_.burst_factor;
        rs.burst_period_s = spec_.burst_period_s;
        rs.arrival_source = fed ? &feed.source(r) : nullptr;
        rs.warmup_requests = ceilDiv(opts.warmup_requests, n);
        rs.warmup_s = opts.warmup_s;
        rs.measure_requests = ceilDiv(opts.measure_requests, n);
        rs.min_measure_s = opts.min_measure_s;
        rs.measure_iterations = opts.measure_iterations;
        rs.max_sim_s = opts.max_sim_s;
        rs.seed = opts.seed + r;
        rs.fast_forward = opts.fast_forward;
        if (!spec_.replica_faults.empty()) {
            rs.faults = spec_.replica_faults[r];
        } else {
            rs.faults = opts.fault_plan;
            // Decorrelate replica fault streams; replica 0 keeps the
            // plan exactly (the 1-replica differential depends on it).
            if (r > 0)
                rs.faults.seed += static_cast<std::uint64_t>(r) * 9973;
        }
        // Chaos latency storms land as extra scheduled faults on the
        // victim replica's plan (the watchdog machinery answers them).
        if (chaos_on) {
            for (const auto &sf : chaos.replica_faults[r])
                rs.faults.scheduled.push_back(sf);
        }

        ReplicaOutcome &o = out[r];
        o.replica = r;
        o.training = trains[r] != 0;
        o.sim = accel.run(rs);
        feed.release(r);
    });

    // The replicas have stopped; the rest of the stream is only
    // counted. Router-side conservation: every candidate reached a
    // replica or was shed; behind the control plane, replica
    // assignments are the dispatches plus their hedge duplicates.
    feed.routeToEnd();
    ResilienceStats rstats;
    if (cp_on) {
        rstats = cp->stats();
        rstats.training_replicas_shed = training_replicas_shed;
    }
    const std::uint64_t generated = feed.generated();
    const std::uint64_t shed = feed.shed();
    const std::uint64_t assigned_total =
        std::accumulate(feed.assigned().begin(), feed.assigned().end(),
                        std::uint64_t{0});
    if (cp_on) {
        EQX_ASSERT(generated == rstats.dispatched + shed, "generated ",
                   generated, " != dispatched ", rstats.dispatched,
                   " + shed ", shed);
        EQX_ASSERT(assigned_total ==
                       rstats.dispatched + rstats.hedges_issued,
                   "assigned ", assigned_total, " != dispatched ",
                   rstats.dispatched, " + hedges ", rstats.hedges_issued);
    } else {
        EQX_ASSERT(generated == assigned_total + shed, "generated ",
                   generated, " != assigned ", assigned_total, " + shed ",
                   shed);
    }
    for (std::size_t r = 0; r < n; ++r)
        out[r].assigned_candidates = feed.assigned()[r];

    // Deterministic merge, replicas in index order.
    ClusterPointResult res;
    res.load = load;
    res.replicas = n;
    res.policy = spec_.policy;
    res.generated_candidates = generated;
    res.router_shed = shed;
    res.rerouted = feed.rerouted();
    res.feed_buffer_high_water = feed.bufferHighWater();
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
    double inv_f = 1.0 / f;
    if (res.merged_latency_cycles.count() > 0) {
        res.mean_latency_s = res.merged_latency_cycles.mean() * inv_f;
        res.p50_latency_s =
            res.merged_latency_cycles.percentile(0.5) * inv_f;
        res.p99_latency_s =
            res.merged_latency_cycles.percentile(0.99) * inv_f;
        res.max_latency_s = res.merged_latency_cycles.max() * inv_f;
    }
    // Planned and chaos outages are fleet downtime: account them in
    // the merged FaultStats and in the availability over the run
    // horizon.
    for (const auto &o : outages) {
        Tick from = std::min(o.from, max_ticks);
        Tick to = std::min(o.to, max_ticks);
        res.outage_cycles += to - from;
    }
    res.faults.downtime_cycles += res.outage_cycles;
    double span = static_cast<double>(n) *
                  static_cast<double>(std::max<Tick>(max_ticks, 1));
    double down =
        std::min(static_cast<double>(res.faults.downtime_cycles), span);
    res.availability = 1.0 - down / span;

    // Resilience reporting. Request availability is candidate-level
    // (all sheds); inference availability excludes sheds the priority
    // tags steered onto background work. Goodput counts measured
    // completions inside the admission deadline (all of them when no
    // deadline is set), normalized per replica-measured-second.
    res.control_plane = cp_on;
    res.resilience = rstats;
    if (generated > 0) {
        res.request_availability =
            1.0 - static_cast<double>(shed) /
                      static_cast<double>(generated);
    }
    std::uint64_t inference_offered =
        rstats.admission.offered - rstats.admission.offered_background;
    if (cp_on && inference_offered > 0) {
        res.inference_availability =
            1.0 - static_cast<double>(rstats.shed_inference_total) /
                      static_cast<double>(inference_offered);
    } else {
        res.inference_availability = res.request_availability;
    }
    const Tick deadline = spec_.resilience.admission.deadline_cycles;
    for (const auto &o : out) {
        std::uint64_t good = 0;
        for (double s : o.sim.latency_cycles.rawSamples()) {
            if (deadline == 0 || s <= static_cast<double>(deadline))
                ++good;
        }
        res.deadline_met += good;
        if (o.sim.sim_seconds > 0.0) {
            res.goodput_rps +=
                static_cast<double>(good) / o.sim.sim_seconds;
        }
    }
    // Fleet tier reporting, for specs that configure the tier (a flat
    // spec's one shard reports nothing, so flat digests stay as they
    // were): per-shard slices merge their replicas in index order --
    // the same order the fleet-level merge above walked, so
    // shard-tracker merging reproduces the fleet percentiles bitwise
    // -- plus the autoscaler's decision accounting.
    if (spec_.fleet.routesHierarchically()) {
        res.shards = router.shardCount();
        res.shard_policy = spec_.fleet.shard_policy;
        res.shard_rerouted = router.shardRerouted();
        res.per_shard.resize(res.shards);
        for (std::size_t s = 0; s < res.shards; ++s) {
            ShardOutcome &sh = res.per_shard[s];
            sh.shard = s;
            sh.first_replica = router.shardBase(s);
            sh.replicas = router.shardSize(s);
            for (std::size_t r = sh.first_replica;
                 r < sh.first_replica + sh.replicas; ++r) {
                sh.assigned_candidates += out[r].assigned_candidates;
                sh.completed_requests += out[r].sim.completed_requests;
                sh.merged_latency_cycles.merge(out[r].sim.latency_cycles);
                sh.faults.merge(out[r].sim.faults);
            }
            if (sh.merged_latency_cycles.count() > 0)
                sh.p99_latency_s =
                    sh.merged_latency_cycles.percentile(0.99) * inv_f;
        }
        res.autoscaled = as.enabled;
        if (res.autoscaled)
            res.autoscaler = router.autoscalerStats();
    }
    res.per_replica = std::move(out);
    return res;
}

} // namespace cluster
} // namespace equinox
