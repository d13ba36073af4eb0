/**
 * @file
 * The flat routing reference: one Router::pick per candidate of the
 * global stream, in the shape of perfbench's cluster replay. Every
 * cluster run routes through a FleetRouter; this loop is what its
 * one-shard case must reproduce bit for bit.
 */

#ifndef EQUINOX_TESTS_FLAT_ROUTE_HH
#define EQUINOX_TESTS_FLAT_ROUTE_HH

#include <vector>

#include "cluster/router.hh"

namespace equinox
{
namespace testutil
{

inline cluster::RouterResult
routeFlat(cluster::Router &router, double rate_per_cycle,
          std::uint64_t seed, Tick max_ticks,
          const std::vector<cluster::RouterSurge> &surges = {})
{
    cluster::RouterResult res;
    res.traces.resize(router.estimators().size());
    res.assigned.assign(router.estimators().size(), 0);
    for (Tick t : cluster::generateCandidateTicks(rate_per_cycle, seed,
                                                  max_ticks, surges)) {
        ++res.generated;
        std::size_t r = router.pick(t);
        if (r != cluster::kNoReplica) {
            res.traces[r].push_back(t);
            ++res.assigned[r];
        }
    }
    res.shed = router.shedCount();
    res.rerouted = router.reroutedCount();
    return res;
}

} // namespace testutil
} // namespace equinox

#endif // EQUINOX_TESTS_FLAT_ROUTE_HH
