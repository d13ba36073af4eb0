/**
 * @file
 * Fleet layer: the router of every cluster run -- hierarchical sharded
 * routing and SLO-aware autoscaling on top of the flat Router.
 *
 * At O(1024) replicas the flat router's per-candidate O(N) scans and
 * its single rotation/argmin become both a simulation cost and a
 * modeling lie (real fleets route through a shard tier). FleetRouter
 * splits the fleet into contiguous balanced shards, runs ONE flat
 * Router per shard, and adds a shard-level RoutingPolicy over per-shard
 * fluid estimators whose service rate is the shard's aggregate
 * capacity. A candidate picks a shard (round-robin / JSQ / latency-
 * aware, same tie-to-lowest-index contract), then the shard's inner
 * Router picks the replica -- O(S + N/S) per candidate instead of
 * O(N).
 *
 * One pipeline: Cluster::run routes every spec through one FleetRouter
 * (max(shards, 1) shards, plus the autoscaler when enabled), with the
 * ControlPlane (cluster/control_plane.hh) as an optional stage in
 * front. The stage reaches the router through the global-index view
 * below (drain, mean backlog, estimators, hedge alternates, a health
 * veto), so admission, retries, hedging and breakers compose with
 * sharding and autoscaling.
 *
 * Identity lemma (tests/test_fleet_differential.cc): with 1 shard the
 * shard tier is skipped -- pickShard could only return shard 0 -- and
 * every pick delegates to the single inner Router with the exact call
 * sequence of a flat Router::pick loop, so a flat fleet is the 1-shard
 * case, byte-identical under every policy, outage plan, and traffic
 * shape. With more shards the shed path still runs the chosen shard's
 * inner pick, so its round-robin cursor advances like a flat router's.
 *
 * The autoscaler is causal like every routing decision: it reads only
 * the router-side estimate stream and its own candidate counts, never
 * the replica simulations. It counts every pick() -- behind the
 * control plane that is every post-admission pick, retries included.
 * Replicas activate/deactivate as a prefix of
 * the global index space (lowest indices first), activations pay a
 * warm-up lag before becoming routable, and decisions respect a
 * cooldown (hysteresis). Scale-up combines a feed-forward plan from
 * the observed arrival rate with proportional feedback on the p99 of
 * recent assignment-latency estimates -- the same exact-rank
 * percentile every tracker in the repo computes.
 */

#ifndef EQUINOX_CLUSTER_FLEET_HH
#define EQUINOX_CLUSTER_FLEET_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/router.hh"
#include "cluster/routing_policy.hh"
#include "common/types.hh"
#include "fault/traffic_mix.hh"
#include "stats/sliding_window.hh"

namespace equinox
{
namespace cluster
{

/** SLO-aware replica autoscaling, declaratively (seconds domain). */
struct AutoscalerSpec
{
    bool enabled = false;
    /** Active-replica floor (>= 1). */
    std::size_t min_replicas = 1;
    /** Active-replica ceiling; 0 = the fleet size. */
    std::size_t max_replicas = 0;
    /** Replicas active at t = 0; 0 = min_replicas. */
    std::size_t initial_replicas = 0;
    /** p99 latency target the controller defends (> 0 when enabled). */
    double target_p99_s = 0.0;
    /**
     * Scale down only when the observed p99 sits below
     * low_watermark * target (in (0, 1)); the dead band between the
     * watermark and the target is the hysteresis that keeps the fleet
     * from flapping around the SLO boundary.
     */
    double low_watermark = 0.5;
    /**
     * Utilization the feed-forward capacity plan provisions for, in
     * (0, 1]: needed = ceil(rate / (mu * target_utilization)). Also
     * the baseline the over-provision accounting charges against.
     */
    double target_utilization = 0.85;
    /** Controller decision cadence (> 0 when enabled). */
    double decision_interval_s = 1e-3;
    /** Minimum spacing between consecutive scaling actions (>= 0). */
    double cooldown_s = 3e-3;
    /** Lag between activating a replica and it becoming routable. */
    double warmup_s = 5e-4;
    /** Sliding window of assignment-latency estimates (>= 1). */
    std::size_t estimate_window = 256;
    /** No feedback decisions before this many samples (>= 1). */
    std::size_t min_samples = 16;

    /** Actionable configuration errors; empty when usable. */
    std::vector<std::string> validate() const;
};

/** Everything one autoscaled routing pass reports. */
struct AutoscalerStats
{
    std::uint64_t decisions = 0;
    std::uint64_t scale_ups = 0;
    std::uint64_t scale_downs = 0;
    /** Provisioned-count envelope over the run. */
    std::size_t min_active = 0;
    std::size_t max_active = 0;
    std::size_t final_active = 0;
    /** Integral of provisioned replicas over the horizon (ticks). */
    double active_replica_ticks = 0.0;
    /** Integral of the feed-forward capacity plan (ticks). */
    double needed_replica_ticks = 0.0;
    /** Integral of max(0, provisioned - needed) (ticks). */
    double over_provisioned_ticks = 0.0;
    /** over_provisioned_ticks / active_replica_ticks (0 when idle). */
    double over_provision_frac = 0.0;
    /** (tick, provisioned count after the action), per action. */
    std::vector<std::pair<Tick, std::size_t>> transitions;
};

/** Fleet-scale serving knobs riding on a ClusterSpec. */
struct FleetSpec
{
    /**
     * Shard count of the FleetRouter; 0 routes flat (one shard over
     * every replica, and no fleet fields in the result). Shards
     * partition the replicas contiguously and balanced (sizes differ
     * by <= 1).
     */
    std::size_t shards = 0;
    /** Policy of the shard tier (replica tier uses ClusterSpec's). */
    RoutingPolicy shard_policy = RoutingPolicy::JoinShortestQueue;
    AutoscalerSpec autoscaler;
    /** Diurnal / flash-crowd / multi-tenant arrival shaping. */
    fault::TrafficMix traffic;

    /** True when any fleet mechanism is configured. */
    bool
    enabled() const
    {
        return shards > 0 || autoscaler.enabled || traffic.enabled();
    }
    /**
     * True when the run reports the fleet tier (shards, per-shard
     * slices, autoscaler); every run routes through a FleetRouter.
     */
    bool
    routesHierarchically() const
    {
        return shards > 0 || autoscaler.enabled;
    }
    /** Actionable configuration errors; empty when usable. */
    std::vector<std::string> validate() const;
};

/** Two-level router: shard-level policy over per-shard flat Routers. */
class FleetRouter
{
  public:
    /** Construction knobs, converted to the cycle domain by the
     *  cluster layer (the router never sees wall-clock seconds). */
    struct Config
    {
        RoutingPolicy replica_policy = RoutingPolicy::RoundRobin;
        RoutingPolicy shard_policy = RoutingPolicy::JoinShortestQueue;
        std::size_t replicas = 1;
        std::size_t shards = 1;
        /** One replica's saturation rate, requests per cycle. */
        double service_rate_per_cycle = 0.0;
        std::size_t latency_window = 64;

        // -- autoscaler, cycle domain (autoscale=false ignores all) --
        bool autoscale = false;
        std::size_t min_active = 1;
        std::size_t max_active = 0; //!< 0 = replicas
        std::size_t initial_active = 0; //!< 0 = min_active
        double target_p99_cycles = 0.0;
        double low_watermark = 0.5;
        double target_utilization = 0.85;
        Tick decision_interval = 1;
        Tick cooldown = 0;
        Tick warmup = 0;
        std::size_t estimate_window = 256;
        std::size_t min_samples = 16;
    };

    FleetRouter(const Config &cfg, std::vector<RouterOutage> outages);

    /** The inner routers' availability filters point back at this
     *  object. */
    FleetRouter(const FleetRouter &) = delete;
    FleetRouter &operator=(const FleetRouter &) = delete;

    /** Route the global candidate stream, one pick() per candidate:
     *  RouterResult with global replica indices. */
    RouterResult route(double rate_per_cycle, std::uint64_t seed,
                       Tick max_ticks,
                       const std::vector<RouterSurge> &surges = {});

    /**
     * One step of route(): pull @p stream's next candidate into
     * @p out and pick its replica. False once the stream is exhausted.
     * Callers bracket the steps with beginRoute() and finishRoute().
     */
    bool step(ArrivalStream &stream, RouteStep &out);

    /** Candidates step() has pulled from its stream. */
    std::uint64_t generated() const { return generated_; }

    /**
     * Route one candidate at @p t: autoscaler bookkeeping, shard pick
     * (skipped with one shard), inner replica pick; returns the global
     * replica index or kNoReplica.
     */
    std::size_t pick(Tick t);

    /**
     * Open a routing pass over [0, @p max_ticks]: the autoscaler does
     * not count candidates past it. route() calls this; standalone
     * pick() users call it first (without it every candidate counts).
     */
    void beginRoute(Tick max_ticks) { horizon_ = max_ticks; }

    /**
     * Close the autoscaler's interval accounting at the run horizon.
     * route() calls this; standalone pick() users call it once at the
     * end (idempotent per horizon).
     */
    void finishRoute(Tick max_ticks);

    std::size_t shardCount() const { return shards_; }
    std::size_t shardOf(std::size_t replica) const;
    std::size_t shardBase(std::size_t s) const { return base_[s]; }
    std::size_t
    shardSize(std::size_t s) const
    {
        return base_[s + 1] - base_[s];
    }

    /** Candidates whose first-choice SHARD was skipped (the inner
     *  routers count their own replica-level re-routes). */
    std::uint64_t shardRerouted() const { return shard_rerouted_; }

    /** True when @p replica was provisioned at any point of the run
     *  (always true with the autoscaler off). */
    bool everActive(std::size_t replica) const;

    const AutoscalerStats &autoscalerStats() const { return stats_; }

    // -- the control-plane stage's view, by global replica index ------

    const Config &config() const { return cfg_; }

    /** Advance every replica estimator's fluid drain to @p t. */
    void drainAll(Tick t);

    /**
     * Mean estimated backlog over all replicas (after drainAll),
     * summed in global index order: bitwise a flat Router's mean.
     */
    double meanBacklog() const;

    /** True when @p replica is outside its planned outages at @p t. */
    bool alive(std::size_t replica, Tick t) const;

    const ReplicaEstimator &estimator(std::size_t replica) const;

    /**
     * The best available replica other than @p exclude in
     * @p exclude's shard (hedges stay inside the primary's shard), by
     * the replica policy's metric; kNoReplica when none. Does NOT
     * assign.
     */
    std::size_t pickAlternate(Tick t, std::size_t exclude) const;

    /** Account one hedged duplicate assigned to @p replica at @p t. */
    void assignTo(std::size_t replica, Tick t);

    /**
     * Install a health veto (the control plane's circuit breakers),
     * consulted on top of outages and the autoscaler's routability:
     * a vetoed replica is skipped like a dead one, and a shard whose
     * replicas are all vetoed is skipped like a dark shard.
     */
    void setHealthVeto(std::function<bool(std::size_t, Tick)> veto);

    /** Candidates shed because the picked shard had no replica. */
    std::uint64_t shedCount() const;
    /** Replica-level plus shard-level re-routes. */
    std::uint64_t reroutedCount() const;

  private:
    bool shardAvailable(std::size_t s, Tick t) const;
    double shardMetric(std::size_t s) const;
    std::size_t pickShard(Tick t);
    bool routable(std::size_t replica, Tick t) const;
    bool admits(std::size_t replica, Tick t) const;
    void installFilters();
    void onCandidate(Tick t);
    void decide(Tick boundary);
    void setProvisioned(Tick boundary, std::size_t desired);

    Config cfg_;
    std::size_t shards_;
    /** base_[s] = first global replica of shard s; size shards_+1. */
    std::vector<std::size_t> base_;
    std::vector<Router> inner_;
    std::vector<ReplicaEstimator> shard_est_;
    /** True when shard s has any outage window (fast-path gate). */
    std::vector<char> shard_has_outage_;
    std::size_t shard_rr_ = 0;
    std::uint64_t shard_rerouted_ = 0;
    std::uint64_t generated_ = 0;
    std::function<bool(std::size_t, Tick)> veto_;

    // -- autoscaler state (untouched when cfg_.autoscale is false) ----
    /** First tick replica r serves; kNeverTick = not provisioned. */
    std::vector<Tick> routable_from_;
    std::vector<char> ever_active_;
    std::size_t provisioned_ = 0;
    std::size_t max_active_ = 0; //!< resolved ceiling
    Tick next_decision_ = 0;
    Tick horizon_ = 0;
    bool acted_ = false;
    Tick last_action_ = 0;
    std::uint64_t interval_candidates_ = 0;
    stats::SlidingWindow estimates_;
    AutoscalerStats stats_;
};

} // namespace cluster
} // namespace equinox

#endif // EQUINOX_CLUSTER_FLEET_HH
