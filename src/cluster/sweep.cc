#include "cluster/sweep.hh"

#include "obs/metrics_snapshot.hh"

namespace equinox
{
namespace core
{

std::vector<cluster::ClusterPointResult>
runClusterSweep(const sim::AcceleratorConfig &cfg,
                const cluster::ClusterSpec &cspec,
                const std::vector<double> &loads,
                const ExperimentOptions &opts)
{
    cluster::Cluster fleet(cfg, cspec);
    // Compile once per (config, options); every point and every
    // replica installs copies of the same descriptors. The replicas
    // inside each point are the parallel dimension (spread over the
    // workers by parallelFor), so the points themselves run in input
    // order.
    CompiledWorkload compiled = compileWorkload(cfg, opts);
    std::vector<cluster::ClusterPointResult> out;
    out.reserve(loads.size());
    for (double load : loads)
        out.push_back(fleet.run(load, opts, compiled));
    return out;
}

void
addClusterPoint(obs::MetricsSnapshot &snap, const std::string &label,
                const cluster::ClusterPointResult &r)
{
    obs::Json point = obs::Json::object();
    point["load"] = r.load;
    point["replicas"] = static_cast<std::uint64_t>(r.replicas);
    point["policy"] = cluster::routingPolicyName(r.policy);

    point["generated_candidates"] = r.generated_candidates;
    point["router_shed"] = r.router_shed;
    point["rerouted"] = r.rerouted;

    point["aggregate_inference_tops"] = r.aggregate_inference_tops;
    point["aggregate_training_tops"] = r.aggregate_training_tops;
    point["completed_requests"] = r.completed_requests;
    point["training_iterations"] = r.training_iterations;
    point["committed_training_iterations"] =
        r.committed_training_iterations;

    point["mean_latency_s"] = r.mean_latency_s;
    point["p50_latency_s"] = r.p50_latency_s;
    point["p99_latency_s"] = r.p99_latency_s;
    point["max_latency_s"] = r.max_latency_s;
    point["merged_samples"] =
        static_cast<std::uint64_t>(r.merged_latency_cycles.count());

    point["admitted_requests"] = r.admitted_requests;
    point["retired_requests"] = r.retired_requests;
    point["inflight_requests"] = r.inflight_requests;
    point["shed_requests"] = r.shed_requests;

    point["availability"] = r.availability;
    point["request_availability"] = r.request_availability;
    point["inference_availability"] = r.inference_availability;
    point["goodput_rps"] = r.goodput_rps;
    point["deadline_met"] = r.deadline_met;
    point["outage_cycles"] = static_cast<std::uint64_t>(r.outage_cycles);
    if (r.faults.totalFaults() > 0 || r.faults.recoveryEvents() > 0) {
        obs::Json &faults = point["faults"];
        faults["total"] = r.faults.totalFaults();
        faults["recovery_events"] = r.faults.recoveryEvents();
        faults["downtime_cycles"] =
            static_cast<std::uint64_t>(r.faults.downtime_cycles);
    }

    for (const auto &rep : r.per_replica) {
        obs::Json row = obs::Json::object();
        row["assigned_candidates"] = rep.assigned_candidates;
        row["training"] = rep.training;
        row["completed_requests"] = rep.sim.completed_requests;
        row["admitted_requests"] = rep.sim.admitted_requests;
        row["p99_latency_s"] = rep.sim.p99_latency_s;
        row["inference_tops"] =
            rep.sim.inference_throughput_ops / 1e12;
        row["training_tops"] = rep.sim.training_throughput_ops / 1e12;
        row["availability"] = rep.sim.availability;
        point["per_replica"]["r" + std::to_string(rep.replica)] =
            std::move(row);
    }

    snap.section("cluster")[label].append(std::move(point));
}

void
addClusterSweep(obs::MetricsSnapshot &snap, const std::string &label,
                const std::vector<cluster::ClusterPointResult> &rs)
{
    for (const auto &r : rs)
        addClusterPoint(snap, label, r);
}

void
addResiliencePoint(obs::MetricsSnapshot &snap, const std::string &label,
                   const cluster::ClusterPointResult &r)
{
    const cluster::ResilienceStats &s = r.resilience;
    obs::Json point = obs::Json::object();
    point["load"] = r.load;
    point["control_plane"] = r.control_plane;
    point["request_availability"] = r.request_availability;
    point["inference_availability"] = r.inference_availability;
    point["goodput_rps"] = r.goodput_rps;
    point["deadline_met"] = r.deadline_met;
    point["p99_latency_s"] = r.p99_latency_s;

    obs::Json &admission = point["admission"];
    admission["offered"] = s.admission.offered;
    admission["offered_background"] = s.admission.offered_background;
    admission["admitted"] = s.admission.admitted;
    admission["shed_rate_limited"] = s.admission.shed_rate_limited;
    admission["shed_queue"] = s.admission.shed_queue;
    admission["shed_background"] = s.admission.shed_background;
    admission["shed_inference"] = s.admission.shed_inference;
    admission["deadline_missed"] = s.admission.deadline_missed;

    obs::Json &retry = point["retry"];
    retry["attempts"] = s.retry_attempts;
    retry["recovered"] = s.retry_recovered;
    retry["shed"] = s.retry_shed;
    retry["budget_exhausted"] = s.retry_budget_exhausted;
    retry["outage_shed"] = s.outage_shed;

    obs::Json &hedge = point["hedge"];
    hedge["issued"] = s.hedges_issued;
    hedge["wins"] = s.hedge_wins;

    obs::Json &breaker = point["breaker"];
    breaker["opens"] = s.breaker_opens;
    breaker["reopens"] = s.breaker_reopens;
    breaker["closes"] = s.breaker_closes;
    breaker["denials"] = s.breaker_denials;

    point["dispatched"] = s.dispatched;
    point["dispatched_background"] = s.dispatched_background;
    point["shed_background_total"] = s.shed_background_total;
    point["shed_inference_total"] = s.shed_inference_total;
    point["total_shed"] = s.totalShed();
    point["training_replicas_shed"] =
        static_cast<std::uint64_t>(s.training_replicas_shed);

    snap.section("resilience")[label].append(std::move(point));
}

void
addFleetPoint(obs::MetricsSnapshot &snap, const std::string &label,
              const cluster::ClusterPointResult &r)
{
    obs::Json point = obs::Json::object();
    point["load"] = r.load;
    point["replicas"] = static_cast<std::uint64_t>(r.replicas);
    point["policy"] = cluster::routingPolicyName(r.policy);
    point["shards"] = static_cast<std::uint64_t>(r.shards);
    point["shard_policy"] = cluster::routingPolicyName(r.shard_policy);

    point["generated_candidates"] = r.generated_candidates;
    point["router_shed"] = r.router_shed;
    point["rerouted"] = r.rerouted;
    point["shard_rerouted"] = r.shard_rerouted;
    point["completed_requests"] = r.completed_requests;
    point["aggregate_inference_tops"] = r.aggregate_inference_tops;
    point["aggregate_training_tops"] = r.aggregate_training_tops;
    point["mean_latency_s"] = r.mean_latency_s;
    point["p50_latency_s"] = r.p50_latency_s;
    point["p99_latency_s"] = r.p99_latency_s;
    point["max_latency_s"] = r.max_latency_s;
    point["availability"] = r.availability;
    point["request_availability"] = r.request_availability;

    // Per-SHARD rows: at fleet scale the per-replica table would be
    // thousands of rows; the shard tier is the reporting granularity.
    for (const auto &sh : r.per_shard) {
        obs::Json row = obs::Json::object();
        row["first_replica"] =
            static_cast<std::uint64_t>(sh.first_replica);
        row["replicas"] = static_cast<std::uint64_t>(sh.replicas);
        row["assigned_candidates"] = sh.assigned_candidates;
        row["completed_requests"] = sh.completed_requests;
        row["p99_latency_s"] = sh.p99_latency_s;
        if (sh.faults.totalFaults() > 0)
            row["faults"] = sh.faults.totalFaults();
        point["per_shard"]["s" + std::to_string(sh.shard)] =
            std::move(row);
    }

    point["autoscaled"] = r.autoscaled;
    if (r.autoscaled) {
        const cluster::AutoscalerStats &a = r.autoscaler;
        obs::Json &scaler = point["autoscaler"];
        scaler["decisions"] = a.decisions;
        scaler["scale_ups"] = a.scale_ups;
        scaler["scale_downs"] = a.scale_downs;
        scaler["min_active"] = static_cast<std::uint64_t>(a.min_active);
        scaler["max_active"] = static_cast<std::uint64_t>(a.max_active);
        scaler["final_active"] =
            static_cast<std::uint64_t>(a.final_active);
        scaler["active_replica_ticks"] = a.active_replica_ticks;
        scaler["needed_replica_ticks"] = a.needed_replica_ticks;
        scaler["over_provisioned_ticks"] = a.over_provisioned_ticks;
        scaler["over_provision_frac"] = a.over_provision_frac;
    }

    snap.section("fleet")[label].append(std::move(point));
}

void
addFleetSweep(obs::MetricsSnapshot &snap, const std::string &label,
              const std::vector<cluster::ClusterPointResult> &rs)
{
    for (const auto &r : rs)
        addFleetPoint(snap, label, r);
}

} // namespace core
} // namespace equinox
