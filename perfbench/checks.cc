#include "checks.hh"

#include "sim/result_digest.hh"

namespace perfbench
{

using namespace equinox;

std::uint64_t
clusterDigest(const cluster::ClusterPointResult &r)
{
    sim::ResultDigest dg;
    dg.u64(r.generated_candidates);
    dg.u64(r.router_shed);
    dg.u64(r.rerouted);
    for (const auto &o : r.per_replica) {
        dg.u64(o.assigned_candidates);
        dg.u64(o.training ? 1 : 0);
        dg.u64(sim::resultDigest(o.sim));
    }
    dg.u64(r.completed_requests);
    dg.u64(r.merged_latency_cycles.count());
    dg.d(r.mean_latency_s);
    dg.d(r.p50_latency_s);
    dg.d(r.p99_latency_s);
    dg.d(r.max_latency_s);
    const cluster::ResilienceStats &s = r.resilience;
    dg.u64(s.dispatched);
    dg.u64(s.hedges_issued);
    dg.u64(s.totalShed());
    dg.u64(s.retry_attempts);
    dg.u64(s.retry_recovered);
    dg.u64(s.training_replicas_shed);
    dg.u64(s.dispatch_heap_high_water);
    return dg.value();
}

std::uint64_t
historyDigest(const nn::TrainHistory &h)
{
    sim::ResultDigest dg;
    for (const auto &m : h) {
        dg.u64(m.epoch);
        dg.d(m.train_loss);
        dg.d(m.valid_loss);
        dg.d(m.valid_error);
        dg.d(m.valid_perplexity);
    }
    return dg.value();
}

std::string
checkReplica(const sim::SimResult &s)
{
    if (s.admitted_requests != s.retired_requests + s.inflight_requests) {
        return "admitted " + std::to_string(s.admitted_requests) +
               " != retired " + std::to_string(s.retired_requests) +
               " + inflight " + std::to_string(s.inflight_requests);
    }
    return {};
}

std::string
checkCluster(const cluster::ClusterPointResult &r)
{
    std::uint64_t assigned = 0;
    for (const auto &o : r.per_replica)
        assigned += o.assigned_candidates;
    if (r.control_plane) {
        const cluster::ResilienceStats &s = r.resilience;
        if (r.generated_candidates != s.dispatched + s.totalShed()) {
            return "generated " + std::to_string(r.generated_candidates) +
                   " != dispatched " + std::to_string(s.dispatched) +
                   " + shed " + std::to_string(s.totalShed());
        }
        if (assigned != s.dispatched + s.hedges_issued) {
            return "assigned " + std::to_string(assigned) +
                   " != dispatched " + std::to_string(s.dispatched) +
                   " + hedges " + std::to_string(s.hedges_issued);
        }
    } else if (r.generated_candidates != assigned + r.router_shed) {
        return "generated " + std::to_string(r.generated_candidates) +
               " != assigned " + std::to_string(assigned) + " + shed " +
               std::to_string(r.router_shed);
    }
    for (const auto &o : r.per_replica) {
        if (auto err = checkReplica(o.sim); !err.empty())
            return "replica " + std::to_string(o.replica) + ": " + err;
    }
    return {};
}

} // namespace perfbench
