/**
 * @file
 * Fleet layer: hierarchical sharded routing and SLO-aware autoscaling
 * on top of the flat Router.
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
 * Identity lemma (tests/test_fleet_differential.cc): with 1 shard,
 * every pick delegates to the single inner Router with the exact call
 * sequence of the flat path -- including the shed path, where the
 * chosen shard's inner pick still runs so its round-robin cursor
 * advances exactly like the flat router's -- so a 1-shard fleet is
 * byte-identical to the flat Router under every policy, outage plan,
 * and traffic shape.
 *
 * The autoscaler is causal like every routing decision: it reads only
 * the router-side estimate stream and its own candidate counts, never
 * the replica simulations. Replicas activate/deactivate as a prefix of
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
     * Shard count for the hierarchical router; 0 keeps the flat
     * Router (the fleet layer constructs nothing). Shards partition
     * the replicas contiguously and balanced (sizes differ by <= 1).
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
    /** True when routing must go through the FleetRouter. */
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

    /** Route the global candidate stream; same contract as
     *  Router::route, with global replica indices in the result. */
    RouterResult route(double rate_per_cycle, std::uint64_t seed,
                       Tick max_ticks,
                       const std::vector<RouterSurge> &surges = {});

    /**
     * Route one candidate at @p t: autoscaler bookkeeping, shard pick,
     * inner replica pick; returns the global replica index or
     * kNoReplica. Exposed for unit tests; route() calls this.
     */
    std::size_t pick(Tick t);

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

    const std::vector<Router> &innerRouters() const { return inner_; }

  private:
    bool shardAvailable(std::size_t s, Tick t) const;
    double shardMetric(std::size_t s) const;
    std::size_t pickShard(Tick t);
    bool routable(std::size_t replica, Tick t) const;
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
