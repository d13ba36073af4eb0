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

void
ReplicaEstimator::drainTo(Tick now)
{
    EQX_ASSERT(now >= last_, "estimator time ran backwards");
    double drained =
        static_cast<double>(now - last_) * rate_per_cycle_;
    backlog_ = backlog_ > drained ? backlog_ - drained : 0.0;
    last_ = now;
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
    // The window only changes on assignment, so the p99 is refreshed
    // here once and read for free by every later routing decision. The
    // window stays sorted, so this is one exactPercentileSorted call --
    // bit-identical to LatencyTracker::percentile over the same samples
    // (the policy contract windowP99() documents).
    window_p99_ = recent_.percentile(0.99);
}

} // namespace cluster
} // namespace equinox
