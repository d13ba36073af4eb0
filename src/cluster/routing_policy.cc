#include "cluster/routing_policy.hh"

#include "common/logging.hh"

namespace equinox
{
namespace cluster
{

const char *
routingPolicyName(RoutingPolicy policy)
{
    switch (policy) {
    case RoutingPolicy::RoundRobin:
        return "round_robin";
    case RoutingPolicy::JoinShortestQueue:
        return "join_shortest_queue";
    case RoutingPolicy::LatencyAware:
        return "latency_aware";
    }
    return "unknown";
}

std::vector<RoutingPolicy>
allRoutingPolicies()
{
    return {RoutingPolicy::RoundRobin, RoutingPolicy::JoinShortestQueue,
            RoutingPolicy::LatencyAware};
}

ReplicaEstimator::ReplicaEstimator(double service_rate_per_cycle,
                                   std::size_t window)
    : rate_per_cycle_(service_rate_per_cycle), recent_(window)
{
    EQX_ASSERT(service_rate_per_cycle > 0.0,
               "estimator needs a positive service rate");
}

double
ReplicaEstimator::estimatedLatencyCycles() const
{
    // One in-system request occupies the server for 1/mu cycles; a new
    // arrival waits for the backlog plus its own service.
    return (backlog_ + 1.0) / rate_per_cycle_;
}

void
ReplicaEstimator::assign(Tick now)
{
    drainTo(now);
    recent_.push(estimatedLatencyCycles());
    backlog_ += 1.0;
    ++assigned_;
    p99_stale_ = true;
}

} // namespace cluster
} // namespace equinox
