/**
 * @file
 * Cluster load sweeps wired into the core experiment harness: compile
 * the workload once (the same CompiledWorkload cache the single-chip
 * sweeps use), run every load point through a Cluster, and export the
 * points into a MetricsSnapshot "cluster" section.
 *
 * Lives in namespace core beside runLoadSweep -- the cluster layer is
 * the fleet-scale sibling of that API -- but is built into the
 * equinox_cluster library, which layers on top of the core one.
 */

#ifndef EQUINOX_CLUSTER_SWEEP_HH
#define EQUINOX_CLUSTER_SWEEP_HH

#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "core/experiment.hh"

namespace equinox
{
namespace core
{

/**
 * Run a whole cluster load sweep: the workload compiles once, then
 * each point routes the global stream and runs its replicas on
 * min(opts.jobs, replicas) workers, each taking the next unclaimed
 * replica (byte-identical to serial). Points run in input order;
 * results are a pure function of (cfg, cspec, loads, opts).
 */
std::vector<cluster::ClusterPointResult> runClusterSweep(
    const sim::AcceleratorConfig &cfg, const cluster::ClusterSpec &cspec,
    const std::vector<double> &loads, const ExperimentOptions &opts = {});

/**
 * Append one cluster point under "cluster.<label>" in @p snap:
 * routing/aggregate/conservation counters, the exact merged latency
 * percentiles, per-replica rows, and fault/availability accounting.
 * Deterministic field order and formatting, like addLoadPoint.
 */
void addClusterPoint(obs::MetricsSnapshot &snap, const std::string &label,
                     const cluster::ClusterPointResult &r);

/** addClusterPoint over a whole sweep, in input order. */
void addClusterSweep(obs::MetricsSnapshot &snap, const std::string &label,
                     const std::vector<cluster::ClusterPointResult> &rs);

/**
 * Append one control-plane point under "resilience.<label>" in @p
 * snap: availability/goodput headline numbers plus the full admission,
 * retry, hedge, and breaker counter breakdown. Only meaningful for
 * points run with the resilience control plane enabled
 * (r.control_plane); plain points export their availability headline
 * and zeroed mechanism counters.
 */
void addResiliencePoint(obs::MetricsSnapshot &snap,
                        const std::string &label,
                        const cluster::ClusterPointResult &r);

/**
 * Append one fleet-routed point under "fleet.<label>" in @p snap:
 * the hierarchy shape (shards, shard policy, shard-level re-routes),
 * per-SHARD rows (a 1024-replica fleet exports ~32 shard rows, not
 * 1024 replica rows), and the autoscaler's decision accounting
 * (scale events, provisioned envelope, over-provision fraction).
 * Points routed by the flat Router export the headline numbers with
 * shards = 0 and no shard rows.
 */
void addFleetPoint(obs::MetricsSnapshot &snap, const std::string &label,
                   const cluster::ClusterPointResult &r);

/** addFleetPoint over a whole sweep, in input order. */
void addFleetSweep(obs::MetricsSnapshot &snap, const std::string &label,
                   const std::vector<cluster::ClusterPointResult> &rs);

} // namespace core
} // namespace equinox

#endif // EQUINOX_CLUSTER_SWEEP_HH
