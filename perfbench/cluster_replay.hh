/**
 * @file
 * cluster::Cluster::run, replayed stage by stage through the library's
 * public calls so the traced run can time each stage on its own:
 *
 *   candidate generation (generateCandidateTicks) and routing
 *   (Router::pick per candidate, exactly what Router::route does), or
 *   ControlPlane::route when resilience is on; the training
 *   coordinator; one Accelerator per replica (install, then run); and
 *   the exact latency merge.
 *
 * The replay must reproduce Cluster::run bit for bit: every pass the
 * traced run makes checks its digests against the untraced passes,
 * and test_perfbench checks them against Cluster::run directly. Only
 * the flat-Router and ControlPlane paths are replayed (no FleetSpec).
 */

#ifndef PERFBENCH_CLUSTER_REPLAY_HH
#define PERFBENCH_CLUSTER_REPLAY_HH

#include "cluster/cluster.hh"
#include "tracer.hh"

namespace perfbench
{

/**
 * Replay Cluster(cfg, spec).run(load, opts, compiled), recording a span
 * per stage and the routing / merge counts on @p tracer. Fills every
 * field clusterDigest() folds, plus the per-replica rows and
 * aggregates the snapshot export reads; availability and goodput stay
 * at their defaults.
 */
equinox::cluster::ClusterPointResult
replayCluster(const equinox::sim::AcceleratorConfig &cfg,
              const equinox::cluster::ClusterSpec &spec, double load,
              const equinox::core::ExperimentOptions &opts,
              const equinox::core::CompiledWorkload &compiled,
              Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_CLUSTER_REPLAY_HH
