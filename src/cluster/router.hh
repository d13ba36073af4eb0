/**
 * @file
 * The front of the routing pipeline: the global inference candidate
 * stream, and the flat Router that picks a replica per candidate.
 *
 * Candidates come from stream 0 of the project's one arrival
 * generator, ArrivalStream (common/random.hh), which also feeds the
 * single accelerator's request dispatcher; so a 1-replica cluster hands
 * its only replica the very tick sequence a stochastic
 * single-accelerator run would have drawn, and the replica run is
 * byte-identical to it (tests/test_cluster_differential.cc).
 *
 * The Router is the replica tier of FleetRouter (cluster/fleet.hh):
 * every cluster run routes through a FleetRouter, and a flat fleet is
 * its one-shard case, one Router over every replica.
 *
 * Routing decisions are causal: they read only the router's own
 * ReplicaEstimator state, never the replica simulations, so the
 * replicas stay independent and can run one-per-worker.
 */

#ifndef EQUINOX_CLUSTER_ROUTER_HH
#define EQUINOX_CLUSTER_ROUTER_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/routing_policy.hh"
#include "common/random.hh"
#include "common/types.hh"

namespace equinox
{
namespace cluster
{

/** Returned by Router::pick when no healthy replica exists. */
constexpr std::size_t kNoReplica = static_cast<std::size_t>(-1);

/** One planned replica outage, in absolute ticks [from, to). */
struct RouterOutage
{
    std::size_t replica = 0;
    Tick from = 0;
    Tick to = 0;
};

/** One arrival-rate surge window (the arrival stream's type). */
using RouterSurge = ArrivalSurge;

/**
 * Every tick of stream 0 of an ArrivalStream with the same arguments,
 * in order. A rate <= 0 yields no ticks.
 */
std::vector<Tick> generateCandidateTicks(
    double rate_per_cycle, std::uint64_t seed, Tick max_ticks,
    const std::vector<RouterSurge> &surges = {});

/** Everything one routing pass produces. */
struct RouterResult
{
    /** Per-replica candidate arrival ticks (feed RunSpec traces). */
    std::vector<std::vector<Tick>> traces;
    /** Candidates assigned per replica (== traces[r].size()). */
    std::vector<std::uint64_t> assigned;
    /** Candidates drawn from the global arrival process. */
    std::uint64_t generated = 0;
    /** Candidates dropped because every replica was down. */
    std::uint64_t shed = 0;
    /** Candidates whose first-choice replica was down (re-routed). */
    std::uint64_t rerouted = 0;
};

/**
 * Where one routing step sent its candidate tick: to no replica (shed,
 * or backed off for a retry), to one, or -- a hedged dispatch -- to a
 * primary and its duplicate. FleetRouter::step and ControlPlane::step
 * fill it one candidate (one dispatch round) at a time.
 */
struct RouteStep
{
    Tick t = 0;
    std::size_t count = 0;
    std::size_t replicas[2] = {kNoReplica, kNoReplica};

    void
    add(std::size_t r)
    {
        replicas[count++] = r;
    }
};

/**
 * Picks one replica per candidate by policy: the replica tier of
 * FleetRouter, one Router per shard.
 */
class Router
{
  public:
    /**
     * @param policy replica-selection strategy
     * @param replicas replica count (>= 1)
     * @param service_rate_per_cycle one replica's saturation request
     *        rate in requests per cycle (feeds the estimators)
     * @param latency_window sliding window of the latency-aware policy
     * @param outages planned dead windows the router routes around
     */
    Router(RoutingPolicy policy, std::size_t replicas,
           double service_rate_per_cycle, std::size_t latency_window,
           std::vector<RouterOutage> outages);

    /**
     * Route one candidate at @p t: updates the estimators and health
     * view, returns the chosen replica or kNoReplica when every
     * replica is down. FleetRouter calls this as each shard's replica
     * picker; a Router on its own is the one-shard case.
     */
    std::size_t pick(Tick t);

    /** True when @p replica is outside its planned outages at @p t. */
    bool alive(std::size_t replica, Tick t) const;

    /**
     * True when at least one replica is available (alive AND not
     * vetoed by the availability filter) at @p t. The fleet tier's
     * shard-availability check reads this for shards with outages or
     * a health veto.
     */
    bool anyAvailable(Tick t) const;

    /**
     * Install a filter consulted on top of the outage windows
     * (FleetRouter's autoscaler routability and health veto). A
     * filtered replica is skipped by pick() exactly like a dead one;
     * alive() itself stays outage-only so health checks observe the
     * raw outage state.
     */
    void
    setAvailabilityFilter(std::function<bool(std::size_t, Tick)> filter)
    {
        filter_ = std::move(filter);
    }

    /** Advance every estimator's fluid drain to @p t. */
    void drainAll(Tick t);

    /**
     * The best available replica other than @p exclude by the policy
     * metric (backlog, or window p99 for LatencyAware), ties to the
     * lowest index; kNoReplica when none. Does NOT assign -- the
     * hedging layer decides and then calls assignTo().
     */
    std::size_t pickAlternate(Tick t, std::size_t exclude) const;

    /**
     * Account one (hedged) request assigned to @p r at @p t. Drains
     * every estimator to @p t first -- a no-op right after a pick()
     * at @p t, the hedging layer's order.
     */
    void assignTo(std::size_t r, Tick t);

    const std::vector<ReplicaEstimator> &estimators() const
    {
        return estimators_;
    }

    std::uint64_t shedCount() const { return shed_; }
    std::uint64_t reroutedCount() const { return rerouted_; }

  private:
    bool available(std::size_t replica, Tick t) const;
    std::size_t pickRoundRobin(Tick t);
    template <typename Metric>
    std::size_t argmin(Tick t, bool healthy_only, std::size_t exclude,
                       Metric metric) const;
    std::size_t pickMin(Tick t, bool healthy_only,
                        std::size_t exclude = kNoReplica) const;

    RoutingPolicy policy_;
    std::size_t replicas_;
    std::vector<ReplicaEstimator> estimators_;
    std::vector<RouterOutage> outages_;
    std::function<bool(std::size_t, Tick)> filter_;
    std::size_t rr_next_ = 0;
    std::uint64_t shed_ = 0;
    std::uint64_t rerouted_ = 0;
};

} // namespace cluster
} // namespace equinox

#endif // EQUINOX_CLUSTER_ROUTER_HH
