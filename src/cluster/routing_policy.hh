/**
 * @file
 * Routing policies of the cluster front-end and the causal per-replica
 * queue estimator they consult.
 *
 * The router makes every routing decision from its own deterministic
 * model of each replica -- the requests it has assigned so far and a
 * fluid drain at the replica's saturation service rate -- never from
 * the replica simulations themselves. That is exactly the information a
 * real L7 load balancer has (its own accounting, not the server's
 * internals), and it keeps the replicas fully independent so they can
 * run one-per-worker and still merge deterministically (DESIGN.md
 * section 2.4).
 */

#ifndef EQUINOX_CLUSTER_ROUTING_POLICY_HH
#define EQUINOX_CLUSTER_ROUTING_POLICY_HH

#include <cstddef>
#include <vector>

#include "common/types.hh"
#include "stats/sliding_window.hh"

namespace equinox
{
namespace cluster
{

/** How the front-end picks a replica for each arriving request. */
enum class RoutingPolicy
{
    RoundRobin,        //!< rotate over healthy replicas
    JoinShortestQueue, //!< fewest estimated in-system requests
    LatencyAware,      //!< lowest estimated p99 over a sliding window
};

/** Stable short name ("round_robin", ...) for labels and JSON. */
const char *routingPolicyName(RoutingPolicy policy);

/** Every policy, in enum order (sweeps and property tests). */
std::vector<RoutingPolicy> allRoutingPolicies();

/**
 * The router's causal model of one replica: an M/D/1-style fluid queue
 * that grows by one per assigned request and drains at the replica's
 * saturation request rate. estimatedLatencyCycles() is the queueing
 * delay a newly assigned request would see under that model;
 * windowP99() is the p99 of the last `window` such estimates, the
 * "observed p99" the latency-aware policy ranks replicas by.
 */
class ReplicaEstimator
{
  public:
    /**
     * @param service_rate_per_cycle replica saturation rate in
     *        requests per clock cycle (must be > 0)
     * @param window sliding-window length for windowP99()
     */
    ReplicaEstimator(double service_rate_per_cycle, std::size_t window);

    /** Advance the fluid drain to @p now (monotone). */
    void drainTo(Tick now);

    /** Account one request assigned at @p now (drains first). */
    void assign(Tick now);

    /** Estimated requests in system after the last drain/assign. */
    double backlog() const { return backlog_; }

    /** Model latency (cycles) a request assigned now would see. */
    double estimatedLatencyCycles() const;

    /**
     * p99 of the last `window` assignment-time latency estimates --
     * the same interpolated order statistic stats::LatencyTracker
     * computes, refreshed once per assignment and read for free.
     */
    double windowP99() const { return window_p99_; }

    /** Requests assigned to this replica so far. */
    std::uint64_t assigned() const { return assigned_; }

    /**
     * The latency estimate recorded for the most recent assignment --
     * i.e. the model latency THAT request is predicted to see. The
     * control plane's deadline accounting and hedging threshold read
     * it right after Router::pick()/assignTo(). 0 before any
     * assignment.
     */
    double
    lastAssignmentEstimateCycles() const
    {
        return recent_.empty() ? 0.0 : recent_.back();
    }

  private:
    double rate_per_cycle_;
    double backlog_ = 0.0;
    Tick last_ = 0;
    std::uint64_t assigned_ = 0;
    stats::SlidingWindow recent_;
    double window_p99_ = 0.0;
};

} // namespace cluster
} // namespace equinox

#endif // EQUINOX_CLUSTER_ROUTING_POLICY_HH
