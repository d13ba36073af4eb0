/**
 * @file
 * Output checks of the perfbench workloads: digests of each
 * operation's result (compared across passes, between traced and
 * untraced passes, and against recorded values) and the conservation
 * laws a cluster point must satisfy.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <string>

#include "cluster/cluster.hh"
#include "nn/trainer.hh"
#include "sim/accelerator_types.hh"

namespace perfbench
{

/**
 * FNV-1a over a cluster point: routing totals, every replica's
 * assignment, training placement and sim::resultDigest, the exact
 * merged latency, and the control-plane counters.
 */
std::uint64_t clusterDigest(const equinox::cluster::ClusterPointResult &r);

/** FNV-1a over the bit patterns of every epoch's metrics. */
std::uint64_t historyDigest(const equinox::nn::TrainHistory &h);

/** admitted == retired + inflight; empty when it holds. */
std::string checkReplica(const equinox::sim::SimResult &s);

/**
 * The point's conservation laws; empty when all hold, else the first
 * broken one:
 *   - flat Router: generated == sum(assigned) + shed;
 *   - ControlPlane: generated == dispatched + shed and
 *     sum(assigned) == dispatched + hedges;
 *   - each replica: checkReplica.
 */
std::string checkCluster(const equinox::cluster::ClusterPointResult &r);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
