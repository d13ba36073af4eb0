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
 * section 2.4). An estimator's window p99 is synced lazily, when it is
 * read, so only the policy that ranks by it pays to keep it sorted.
 */

#ifndef EQUINOX_CLUSTER_ROUTING_POLICY_HH
#define EQUINOX_CLUSTER_ROUTING_POLICY_HH

#include <cstddef>
#include <vector>

#include "common/logging.hh"
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
 *
 * Assigning only appends the estimate to the window (an O(1) push).
 * The p99 is computed when windowP99() is first read after an
 * assignment and cached until the next one, so a router that never
 * ranks by p99 (join-shortest-queue, round-robin) never sorts a window,
 * and the latency-aware router, which reads every replica's p99 on
 * every pick, syncs one pushed sample per assignment.
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
    void
    drainTo(Tick now)
    {
        EQX_ASSERT(now >= last_, "estimator time ran backwards");
        drainBy(static_cast<double>(now - last_) * rate_per_cycle_, now);
    }

    /**
     * Advance the fluid drain to @p now by @p drained requests, which
     * the caller computed as (now - lastDrain()) * serviceRate(). Lets
     * Router::drainAll compute one amount for estimators that share a
     * rate and a last-drain tick; drainTo() is this with its own.
     */
    void
    drainBy(double drained, Tick now)
    {
        backlog_ = backlog_ > drained ? backlog_ - drained : 0.0;
        last_ = now;
    }

    /** Account one request assigned at @p now (drains first). */
    void assign(Tick now);

    /** Estimated requests in system after the last drain/assign. */
    double backlog() const { return backlog_; }

    /** Tick of the last drain (0 before any). */
    Tick lastDrain() const { return last_; }

    /** The saturation rate the fluid queue drains at. */
    double serviceRate() const { return rate_per_cycle_; }

    /** Model latency (cycles) a request assigned now would see. */
    double estimatedLatencyCycles() const;

    /**
     * p99 of the last `window` assignment-time latency estimates --
     * the same interpolated order statistic stats::LatencyTracker
     * computes, synced on the first read after an assignment and
     * cached until the next; 0 before any assignment.
     */
    double
    windowP99() const
    {
        if (p99_stale_) {
            window_p99_ = recent_.percentile(0.99);
            p99_stale_ = false;
        }
        return window_p99_;
    }

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
    mutable double window_p99_ = 0.0;
    mutable bool p99_stale_ = false; //!< recent_ changed since the read
};

} // namespace cluster
} // namespace equinox

#endif // EQUINOX_CLUSTER_ROUTING_POLICY_HH
