/**
 * @file
 * Golden digests of ControlPlane::route.
 *
 * Each case routes one candidate stream through the control plane and
 * folds the whole RouterResult -- generated/shed/rerouted counts, the
 * per-replica assignment counts and every per-replica trace tick --
 * plus every ResilienceStats field the routing pass sets (admission
 * counters, dispatches, retries, hedges, breakers, priority split,
 * overload candidates, dispatch_heap_high_water) and the overload
 * fraction. The sharded case also folds the autoscaler's report. The
 * constants pin the dispatch order: fresh candidates and retries drain
 * in (tick, seq) order, and at equal ticks a fresh candidate dispatches
 * before any retry.
 *
 * The cases cover seeds 1-3 of
 *   - shed_only: priority tags and a deadline, no retries;
 *   - full: admission, retries, hedges, breakers, background fraction;
 *   - retry_heavy: a dense stream (a candidate every ~2 ticks) with
 *     short backoffs under fleet-wide outages, so retries land on
 *     fresh-candidate ticks, and backlog-watermark admission, so the
 *     order of a tie changes what is admitted;
 *   - flash_crowd_outage: the full spec under the chaos scenario's
 *     outages and arrival surges;
 *   - fleet_autoscaled: the full spec over a 16-replica, 4-shard
 *     FleetRouter with the autoscaler, under the same chaos.
 *
 * A mismatch means routing changed behaviour. Fix the change; re-record
 * only when a change deliberately moves routing, and say so.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/control_plane.hh"
#include "cluster/fleet.hh"
#include "common/units.hh"
#include "fault/chaos_plan.hh"
#include "sim/result_digest.hh"

namespace equinox
{
namespace
{

/** Cycle domain of the chaos conversion: 100 MHz. */
constexpr double kFreqHz = 1e8;
constexpr double kHorizonS = 0.025;
const Tick kHorizon = units::secondsToCycles(kHorizonS, kFreqHz);

void
foldRoute(sim::ResultDigest &dg, const cluster::RouterResult &res,
          const cluster::ControlPlane &cp)
{
    dg.u64(res.generated);
    dg.u64(res.shed);
    dg.u64(res.rerouted);
    dg.u64(res.assigned.size());
    for (auto a : res.assigned)
        dg.u64(a);
    dg.u64(res.traces.size());
    for (const auto &trace : res.traces) {
        dg.u64(trace.size());
        for (Tick t : trace)
            dg.u64(t);
    }

    const cluster::ResilienceStats &s = cp.stats();
    dg.u64(s.admission.offered);
    dg.u64(s.admission.offered_background);
    dg.u64(s.admission.admitted);
    dg.u64(s.admission.shed_rate_limited);
    dg.u64(s.admission.shed_queue);
    dg.u64(s.admission.shed_background);
    dg.u64(s.admission.shed_inference);
    dg.u64(s.admission.deadline_missed);
    dg.u64(s.dispatched);
    dg.u64(s.dispatched_background);
    dg.u64(s.retry_attempts);
    dg.u64(s.retry_recovered);
    dg.u64(s.retry_shed);
    dg.u64(s.retry_budget_exhausted);
    dg.u64(s.outage_shed);
    dg.u64(s.breaker_denials);
    dg.u64(s.hedges_issued);
    dg.u64(s.hedge_wins);
    dg.u64(s.breaker_opens);
    dg.u64(s.breaker_reopens);
    dg.u64(s.breaker_closes);
    dg.u64(s.shed_background_total);
    dg.u64(s.shed_inference_total);
    dg.u64(s.overload_candidates);
    dg.u64(s.dispatch_heap_high_water);
    dg.u64(s.training_replicas_shed);
    dg.d(cp.overloadFraction());
}

void
foldFleet(sim::ResultDigest &dg, const cluster::FleetRouter &router)
{
    dg.u64(router.shardRerouted());
    const cluster::AutoscalerStats &a = router.autoscalerStats();
    dg.u64(a.decisions);
    dg.u64(a.scale_ups);
    dg.u64(a.scale_downs);
    dg.u64(a.min_active);
    dg.u64(a.max_active);
    dg.u64(a.final_active);
    dg.d(a.active_replica_ticks);
    dg.d(a.needed_replica_ticks);
    dg.d(a.over_provisioned_ticks);
    dg.d(a.over_provision_frac);
    dg.u64(a.transitions.size());
    for (const auto &[t, n] : a.transitions) {
        dg.u64(t);
        dg.u64(n);
    }
}

/** Priority tags and a deadline only: routes through the stage, but
 *  nothing retries. */
cluster::ResilienceSpec
shedOnlySpec()
{
    cluster::ResilienceSpec rs;
    rs.admission.background_fraction = 0.3;
    rs.admission.deadline_cycles = static_cast<Tick>(8e-3 * kFreqHz);
    return rs;
}

/** Every mechanism, on overload_resilience's time scales. */
cluster::ResilienceSpec
fullSpec()
{
    cluster::ResilienceSpec rs = shedOnlySpec();
    rs.admission.policy = cluster::AdmissionPolicy::PriorityShed;
    rs.admission.background_watermark = 2.0;
    rs.admission.inference_watermark = 1e6;
    rs.retry.enabled = true;
    rs.retry.max_attempts = 6;
    rs.retry.max_budget = 65536.0;
    rs.retry.budget_ratio = 0.2;
    rs.retry.base_backoff_cycles = static_cast<Tick>(1e-3 * kFreqHz);
    rs.retry.backoff_multiplier = 2.0;
    rs.retry.jitter_frac = 0.25;
    rs.hedge.enabled = true;
    rs.hedge.latency_factor = 1.0;
    rs.hedge.window = 256;
    rs.hedge.min_samples = 64;
    rs.hedge.max_hedge_fraction = 0.01;
    rs.breaker.enabled = true;
    rs.breaker.trip_failures = 4;
    rs.breaker.probe_interval_cycles = static_cast<Tick>(0.2e-3 * kFreqHz);
    rs.breaker.cooldown_cycles = static_cast<Tick>(0.5e-3 * kFreqHz);
    rs.breaker.halfopen_probes = 2;
    rs.shed_training_under_overload = true;
    rs.training_shed_backlog = 4.0;
    return rs;
}

/** Backoffs of a few ticks against a candidate every ~2 ticks. */
cluster::ResilienceSpec
retryHeavySpec()
{
    cluster::ResilienceSpec rs = fullSpec();
    rs.admission.background_watermark = 1.0;
    rs.retry.max_attempts = 10;
    rs.retry.max_budget = 1e9;
    rs.retry.base_backoff_cycles = 3;
    rs.retry.backoff_multiplier = 1.5;
    rs.hedge.max_hedge_fraction = 0.05;
    rs.breaker.enabled = false;
    return rs;
}

/** Fleet-wide and single-replica dark windows over @p replicas. */
std::vector<cluster::RouterOutage>
staticOutages(std::size_t replicas, Tick horizon)
{
    std::vector<cluster::RouterOutage> outages;
    for (std::size_t r = 0; r < replicas; ++r) {
        outages.push_back({r, horizon / 5, horizon / 5 + horizon / 40});
        outages.push_back({r, horizon / 2, horizon / 2 + horizon / 100});
    }
    outages.push_back({0, horizon / 10, horizon / 3});
    outages.push_back({replicas - 1, 2 * horizon / 3, 3 * horizon / 4});
    return outages;
}

struct Chaos
{
    std::vector<cluster::RouterOutage> outages;
    std::vector<cluster::RouterSurge> surges;
};

/** flash_crowd_outage over @p replicas, in kFreqHz cycles. */
Chaos
flashCrowdOutage(std::size_t replicas, std::uint64_t seed)
{
    auto m = fault::materializeChaos(
        fault::chaosScenario("flash_crowd_outage", kHorizonS, seed),
        replicas, kHorizonS);
    Chaos c;
    for (const auto &o : m.outages) {
        c.outages.push_back({o.replica,
                             units::secondsToCycles(o.from_s, kFreqHz),
                             units::secondsToCycles(o.to_s, kFreqHz)});
    }
    for (const auto &s : m.surges) {
        c.surges.push_back({units::secondsToCycles(s.from_s, kFreqHz),
                            units::secondsToCycles(s.to_s, kFreqHz),
                            s.factor});
    }
    return c;
}

/** One replica's service rate (requests per cycle) and fleet size. */
constexpr double kMu = 1e-3;
constexpr std::size_t kReplicas = 4;
constexpr double kLoad = 0.8;

std::uint64_t
shedOnlyDigest(std::uint64_t seed)
{
    cluster::ControlPlane cp(shedOnlySpec(),
                             cluster::RoutingPolicy::JoinShortestQueue,
                             kReplicas, kMu, 64,
                             staticOutages(kReplicas, kHorizon));
    auto res = cp.route(kLoad * kMu * kReplicas, seed, kHorizon);
    sim::ResultDigest dg;
    foldRoute(dg, res, cp);
    return dg.value();
}

std::uint64_t
fullDigest(std::uint64_t seed)
{
    cluster::ControlPlane cp(fullSpec(),
                             cluster::RoutingPolicy::JoinShortestQueue,
                             kReplicas, kMu, 64,
                             staticOutages(kReplicas, kHorizon));
    auto res = cp.route(kLoad * kMu * kReplicas, seed, kHorizon);
    sim::ResultDigest dg;
    foldRoute(dg, res, cp);
    return dg.value();
}

std::uint64_t
retryHeavyDigest(std::uint64_t seed)
{
    // 0.5 candidates per tick against 4 x 0.16 per tick of capacity.
    constexpr Tick horizon = 100000;
    cluster::ControlPlane cp(retryHeavySpec(),
                             cluster::RoutingPolicy::JoinShortestQueue,
                             kReplicas, 0.16, 64,
                             staticOutages(kReplicas, horizon));
    auto res = cp.route(0.5, seed, horizon);
    EXPECT_GT(cp.stats().retry_attempts, res.generated / 50)
        << "seed " << seed;
    sim::ResultDigest dg;
    foldRoute(dg, res, cp);
    return dg.value();
}

std::uint64_t
flashCrowdOutageDigest(std::uint64_t seed)
{
    Chaos chaos = flashCrowdOutage(kReplicas, seed);
    cluster::ControlPlane cp(fullSpec(),
                             cluster::RoutingPolicy::JoinShortestQueue,
                             kReplicas, kMu, 64, chaos.outages);
    auto res =
        cp.route(kLoad * kMu * kReplicas, seed, kHorizon, chaos.surges);
    sim::ResultDigest dg;
    foldRoute(dg, res, cp);
    return dg.value();
}

std::uint64_t
fleetAutoscaledDigest(std::uint64_t seed)
{
    constexpr std::size_t replicas = 16;
    Chaos chaos = flashCrowdOutage(replicas, seed);
    cluster::FleetRouter::Config fc;
    fc.replica_policy = cluster::RoutingPolicy::JoinShortestQueue;
    fc.shard_policy = cluster::RoutingPolicy::JoinShortestQueue;
    fc.replicas = replicas;
    fc.shards = 4;
    fc.service_rate_per_cycle = kMu;
    fc.latency_window = 64;
    fc.autoscale = true;
    fc.min_active = 4;
    fc.initial_active = 8;
    fc.target_p99_cycles = 2e-4 * kFreqHz;
    fc.decision_interval = static_cast<Tick>(2e-4 * kFreqHz);
    fc.cooldown = static_cast<Tick>(4e-4 * kFreqHz);
    fc.warmup = static_cast<Tick>(1e-4 * kFreqHz);
    cluster::FleetRouter router(fc, chaos.outages);
    cluster::ControlPlane cp(fullSpec(), router);
    auto res = cp.route(kLoad * kMu * replicas, seed, kHorizon,
                        chaos.surges);
    sim::ResultDigest dg;
    foldRoute(dg, res, cp);
    foldFleet(dg, router);
    return dg.value();
}

struct Golden
{
    const char *name;
    std::uint64_t (*digest)(std::uint64_t seed);
    std::uint64_t seed_1, seed_2, seed_3;
};

const Golden kGoldens[] = {
    {"shed_only", shedOnlyDigest, 16177425535580535740ull,
     2617803259416613121ull, 1857936241607771002ull},
    {"full", fullDigest, 9971358103173757830ull, 3440178499430590448ull,
     10821709982389940764ull},
    {"retry_heavy", retryHeavyDigest, 6515278038719122797ull,
     1587234477640134436ull, 5474781522767759860ull},
    {"flash_crowd_outage", flashCrowdOutageDigest,
     3012740412867833892ull, 3849143862482889924ull,
     3524846103904795037ull},
    {"fleet_autoscaled", fleetAutoscaledDigest, 14181645191782385078ull,
     10875643746151269179ull, 4166472607496812844ull},
};

TEST(ControlPlaneGolden, RouteMatchesRecordedDigests)
{
    for (const Golden &g : kGoldens) {
        const std::uint64_t want[] = {g.seed_1, g.seed_2, g.seed_3};
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            EXPECT_EQ(g.digest(seed), want[seed - 1])
                << g.name << " seed " << seed;
        }
    }
}

} // namespace
} // namespace equinox
