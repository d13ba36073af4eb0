/**
 * @file
 * Cluster: N independent Accelerator replicas behind one routing
 * pipeline.
 *
 * Models the fleet deployment the paper's single-chip evaluation stops
 * short of: a front-end splits one global Poisson/bursty arrival
 * stream across replicas -- candidate stream, then the optional
 * resilience ControlPlane stage, then a FleetRouter whose one-shard
 * case is the flat Router -- each replica simulates
 * independently (own SimContext, seed, and fault plan -- so replicas
 * can fan out one-per-worker), and the results merge deterministically
 * in replica order with exact percentile merging over the concatenated
 * latency samples. A cluster-wide training coordinator steers the
 * piggybacked training work to the replicas the router loaded least --
 * the paper's "training for free" invariant at fleet scale.
 *
 * Determinism rules (DESIGN.md section 2.4): routing is causal on
 * router-side state only, replicas never feed back into routing, and
 * every merge walks replicas in index order; a run is a pure function
 * of (config, ClusterSpec, load, options).
 */

#ifndef EQUINOX_CLUSTER_CLUSTER_HH
#define EQUINOX_CLUSTER_CLUSTER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/control_plane.hh"
#include "cluster/fleet.hh"
#include "cluster/routing_policy.hh"
#include "core/experiment.hh"
#include "fault/chaos_plan.hh"
#include "sim/accelerator_types.hh"
#include "sim/config.hh"
#include "stats/fault_stats.hh"
#include "stats/histogram.hh"

namespace equinox
{
namespace cluster
{

/** One planned replica outage in seconds of simulated time. */
struct ReplicaOutage
{
    std::size_t replica = 0;
    double from_s = 0.0;
    double to_s = 0.0;
};

/** Static shape of the cluster (everything but the load point). */
struct ClusterSpec
{
    std::size_t replicas = 1;
    RoutingPolicy policy = RoutingPolicy::RoundRobin;
    /** Sliding-window length of the latency-aware policy. */
    std::size_t latency_window = 64;
    /**
     * Training coordinator: how many replicas run the piggybacked
     * training service. 0 (default) trains everywhere; otherwise the
     * min(train_replicas, replicas) replicas the router assigned the
     * fewest requests train (ties to the lowest index).
     */
    std::size_t train_replicas = 0;
    /** Arrival-process shape shared by the whole fleet. */
    sim::ArrivalProcess arrival_process = sim::ArrivalProcess::Poisson;
    double burst_factor = 4.0;
    double burst_period_s = 2e-3;
    /** Dead windows the router routes traffic around. */
    std::vector<ReplicaOutage> outages;
    /**
     * Per-replica fault plans; empty uses the experiment's plan on
     * every replica (seed decorrelated by replica index, replica 0
     * exact), non-empty must have one entry per replica.
     */
    std::vector<fault::FaultPlan> replica_faults;
    /**
     * Overload-resilience control plane (admission, retries, hedging,
     * breakers), a stage in front of the FleetRouter.
     * Default-constructed = disabled: the run never builds a
     * ControlPlane and the router takes the candidate stream directly.
     */
    ResilienceSpec resilience;
    /**
     * Cluster-scope chaos (replica churn, rack outages, latency
     * storms, flash crowds). Default-constructed = none: the run
     * skips materialization entirely.
     */
    fault::ChaosPlan chaos;
    /**
     * Fleet-scale serving: hierarchical sharded routing, SLO-aware
     * autoscaling, and traffic mixes. Every run routes through one
     * FleetRouter; default-constructed = one shard, no autoscaler, no
     * mix -- the flat fleet, byte-identical to a flat Router. Sharding
     * and autoscaling compose with the resilience control plane, which
     * runs as a stage in front of the same router.
     */
    FleetSpec fleet;

    /** Actionable configuration errors; empty when usable. */
    std::vector<std::string> validate() const;
};

/** One replica's slice of a cluster run. */
struct ReplicaOutcome
{
    std::size_t replica = 0;
    /** Arrival candidates the router assigned to this replica. */
    std::uint64_t assigned_candidates = 0;
    /** Whether the training coordinator placed training here. */
    bool training = false;
    sim::SimResult sim;
};

/** One shard's slice of a fleet-routed cluster run. */
struct ShardOutcome
{
    std::size_t shard = 0;
    /** First global replica index of the shard. */
    std::size_t first_replica = 0;
    /** Replicas in the shard (contiguous from first_replica). */
    std::size_t replicas = 0;
    /** Candidates the hierarchy assigned into this shard. */
    std::uint64_t assigned_candidates = 0;
    std::uint64_t completed_requests = 0;
    /**
     * Exact merged latency over the shard's replicas, concatenated in
     * index order -- the same order the fleet-level merge walks, so
     * merging the shard trackers reproduces the fleet percentiles
     * bitwise (tests/test_fleet_properties.cc pins this).
     */
    stats::LatencyTracker merged_latency_cycles;
    stats::FaultStats faults;
    double p99_latency_s = 0.0;
};

/** One measured cluster load point. */
struct ClusterPointResult
{
    double load = 0.0;
    std::size_t replicas = 1;
    RoutingPolicy policy = RoutingPolicy::RoundRobin;

    // -- router accounting --------------------------------------------
    std::uint64_t generated_candidates = 0;
    /** Candidates dropped because every replica was down. */
    std::uint64_t router_shed = 0;
    /** Candidates whose first-choice replica was down. */
    std::uint64_t rerouted = 0;
    /**
     * Most candidate ticks the arrival feed held for replicas at once
     * (ArrivalFeed::bufferHighWater): a fraction of
     * generated_candidates when the replicas pull, all assigned ones
     * when the training placement routes the whole horizon first.
     */
    std::uint64_t feed_buffer_high_water = 0;

    // -- fleet aggregates (sums over replicas, measured windows) ------
    double aggregate_inference_ops = 0.0; //!< ops/s
    double aggregate_training_ops = 0.0;  //!< ops/s
    double aggregate_inference_tops = 0.0;
    double aggregate_training_tops = 0.0;
    std::uint64_t completed_requests = 0;
    std::uint64_t training_iterations = 0;
    std::uint64_t committed_training_iterations = 0;

    // -- exact merged latency (concatenated replica samples) ----------
    stats::LatencyTracker merged_latency_cycles;
    double mean_latency_s = 0.0;
    double p50_latency_s = 0.0;
    double p99_latency_s = 0.0;
    double max_latency_s = 0.0;

    // -- request conservation (run totals, not just measured) ---------
    std::uint64_t admitted_requests = 0;
    std::uint64_t retired_requests = 0;
    std::uint64_t inflight_requests = 0;
    std::uint64_t shed_requests = 0; //!< replica-side fault shedding

    // -- faults and availability --------------------------------------
    /** Replica FaultStats merged, outages added to downtime_cycles. */
    stats::FaultStats faults;
    /** Planned-outage cycles summed over replicas (run horizon). */
    Tick outage_cycles = 0;
    /** 1 - downtime / (replicas x run horizon). */
    double availability = 1.0;

    // -- resilience control plane -------------------------------------
    /** True when the run routed through the ControlPlane. */
    bool control_plane = false;
    ResilienceStats resilience;
    /** 1 - all sheds / generated candidates (request-level). */
    double request_availability = 1.0;
    /**
     * 1 - inference-priority sheds / inference candidates. Equals
     * request_availability without the control plane (no priority
     * tags), exceeds it when background work absorbs the shedding.
     */
    double inference_availability = 1.0;
    /** Measured completions inside the deadline, summed per replica. */
    std::uint64_t deadline_met = 0;
    /**
     * Deadline-meeting completions per second of measured time,
     * summed over replicas (all completions when no deadline is set).
     */
    double goodput_rps = 0.0;

    // -- fleet tier (hierarchical routing + autoscaler) ---------------
    /** Shard count of the FleetRouter; 0 = a flat spec (one shard,
     *  fleet fields left unfilled). */
    std::size_t shards = 0;
    RoutingPolicy shard_policy = RoutingPolicy::JoinShortestQueue;
    /** Candidates whose first-choice SHARD was skipped (also counted
     *  inside the `rerouted` total). */
    std::uint64_t shard_rerouted = 0;
    /** Per-shard slices, in shard order; empty for a flat spec. */
    std::vector<ShardOutcome> per_shard;
    /** True when the run routed through the autoscaler. */
    bool autoscaled = false;
    AutoscalerStats autoscaler;

    std::vector<ReplicaOutcome> per_replica;
};

/** N Accelerator replicas behind one FleetRouter. */
class Cluster
{
  public:
    /** Validates both; dies with an actionable report on bad input. */
    Cluster(sim::AcceleratorConfig cfg, ClusterSpec spec);

    /**
     * Run one load point: route the global stream, run every replica
     * (spread over min(opts.jobs, replicas) workers), and
     * merge in replica order. @p load is the offered fraction of the
     * AGGREGATE saturation rate: load 0.7 on 4 replicas offers
     * 0.7 * 4 * maxRequestRate requests/s fleet-wide.
     *
     * @p replica_sinks optionally attaches one TraceSink per replica
     * (index r observes replica r; shorter vectors leave the rest
     * unobserved). Sinks are per-replica state, so the fan-out stays
     * parallel and byte-identical.
     *
     * Cost note: the router routes every candidate of the FULL
     * opts.max_sim_s horizon (the counts it reports cover the
     * horizon), so routing time scales with rate x horizon. Replicas
     * pull their ticks from an ArrivalFeed as they read them, so
     * memory scales with what they read -- unless the training
     * placement picks a subset of replicas (train_replicas < replicas,
     * shedding training under overload, or the autoscaler), which
     * reads full-horizon counts and so routes the whole horizon into
     * the replicas' buffers first. Size opts.max_sim_s to the
     * simulated time the experiment actually needs, not the
     * single-chip default of 30 s.
     */
    ClusterPointResult run(
        double load, const core::ExperimentOptions &opts,
        const core::CompiledWorkload &compiled,
        const std::vector<sim::TraceSink *> &replica_sinks = {}) const;

    /** As above, compiling the workload on the spot. */
    ClusterPointResult run(double load,
                           const core::ExperimentOptions &opts) const;

    const ClusterSpec &spec() const { return spec_; }
    const sim::AcceleratorConfig &config() const { return cfg_; }

  private:
    sim::AcceleratorConfig cfg_;
    ClusterSpec spec_;
};

} // namespace cluster
} // namespace equinox

#endif // EQUINOX_CLUSTER_CLUSTER_HH
