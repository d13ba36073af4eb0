/**
 * @file
 * Unit tests for the overload-resilience control plane: ChaosPlan /
 * ResilienceSpec validation messages, the admission policies, the
 * circuit-breaker state machine, chaos materialization determinism,
 * surge-aware arrival generation, and the ControlPlane conservation
 * identities.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/admission.hh"
#include "cluster/circuit_breaker.hh"
#include "cluster/control_plane.hh"
#include "cluster/router.hh"
#include "common/random.hh"
#include "fault/chaos_plan.hh"
#include "flat_route.hh"

namespace equinox
{
namespace
{

bool
anyErrorContains(const std::vector<std::string> &errors,
                 const std::string &needle)
{
    return std::any_of(errors.begin(), errors.end(),
                       [&](const std::string &e) {
                           return e.find(needle) != std::string::npos;
                       });
}

// ---------------------------------------------------------------------
// ChaosPlan validation: every rejection carries an actionable message.

TEST(ChaosPlanValidate, DefaultPlanIsValidAndDisabled)
{
    fault::ChaosPlan plan;
    EXPECT_FALSE(plan.enabled());
    EXPECT_TRUE(plan.validate().empty());
}

TEST(ChaosPlanValidate, RejectsNegativeRates)
{
    fault::ChaosPlan plan;
    plan.crash.rate_per_replica_s = -1.0;
    plan.rack.rate_per_s = -0.5;
    plan.storm.rate_per_s = -2.0;
    plan.crowd.rate_per_s = -3.0;
    auto errors = plan.validate();
    EXPECT_EQ(errors.size(), 4u);
    EXPECT_TRUE(anyErrorContains(errors, "crash.rate_per_replica_s"));
    EXPECT_TRUE(anyErrorContains(errors, "rack.rate_per_s"));
    EXPECT_TRUE(anyErrorContains(errors, "storm.rate_per_s"));
    EXPECT_TRUE(anyErrorContains(errors, "crowd.rate_per_s"));
}

TEST(ChaosPlanValidate, RejectsChurnWithZeroRepairTime)
{
    fault::ChaosPlan plan;
    plan.crash.rate_per_replica_s = 1.0;
    plan.crash.mttr_s = 0.0;
    EXPECT_TRUE(anyErrorContains(plan.validate(), "mttr_s"));
}

TEST(ChaosPlanValidate, RejectsRackOutagesWithoutARack)
{
    fault::ChaosPlan plan;
    plan.rack.rate_per_s = 1.0;
    plan.rack.rack_size = 0;
    EXPECT_TRUE(anyErrorContains(plan.validate(), "rack.rack_size"));
    plan.rack.rack_size = 2;
    plan.rack.outage_s = 0.0;
    EXPECT_TRUE(anyErrorContains(plan.validate(), "rack.outage_s"));
}

TEST(ChaosPlanValidate, RejectsEmptyStorms)
{
    fault::ChaosPlan plan;
    plan.storm.rate_per_s = 1.0;
    plan.storm.duration_s = 0.0;
    plan.storm.hangs_per_storm = 0;
    auto errors = plan.validate();
    EXPECT_TRUE(anyErrorContains(errors, "storm.duration_s"));
    EXPECT_TRUE(anyErrorContains(errors, "hangs_per_storm"));
}

TEST(ChaosPlanValidate, RejectsSurgesThatDoNotSurge)
{
    fault::ChaosPlan plan;
    plan.crowd.rate_per_s = 1.0;
    plan.crowd.factor = 1.0;
    EXPECT_TRUE(anyErrorContains(plan.validate(), "crowd.factor"));

    fault::ChaosPlan scheduled;
    scheduled.scheduled_surges.push_back({0.1, 0.2, 0.9});
    EXPECT_TRUE(
        anyErrorContains(scheduled.validate(), "surge factor"));
}

TEST(ChaosPlanValidate, RejectsBackwardsWindows)
{
    fault::ChaosPlan plan;
    plan.scheduled_outages.push_back({0, 0.2, 0.1});
    plan.scheduled_surges.push_back({0.5, 0.4, 2.0});
    auto errors = plan.validate();
    EXPECT_TRUE(anyErrorContains(errors, "scheduled outage"));
    EXPECT_TRUE(anyErrorContains(errors, "scheduled surge"));
}

// ---------------------------------------------------------------------
// ResilienceSpec validation: the satellite-mandated rejections.

TEST(ResilienceSpecValidate, DefaultSpecIsValidAndDisabled)
{
    cluster::ResilienceSpec spec;
    EXPECT_FALSE(spec.enabled());
    EXPECT_TRUE(spec.validate().empty());
}

TEST(ResilienceSpecValidate, RejectsZeroRetryBudgetWithRetriesEnabled)
{
    cluster::ResilienceSpec spec;
    spec.retry.enabled = true;
    spec.retry.max_budget = 0.0;
    EXPECT_TRUE(anyErrorContains(spec.validate(),
                                 "retry.max_budget must be positive"));
}

TEST(ResilienceSpecValidate, RejectsNonPositiveHedgeThreshold)
{
    cluster::ResilienceSpec spec;
    spec.hedge.enabled = true;
    spec.hedge.latency_factor = 0.0;
    EXPECT_TRUE(anyErrorContains(spec.validate(),
                                 "hedge.latency_factor must be > 0"));
    spec.hedge.latency_factor = -2.0;
    EXPECT_TRUE(anyErrorContains(spec.validate(),
                                 "hedge.latency_factor must be > 0"));
}

TEST(ResilienceSpecValidate, RejectsDegenerateRetryKnobs)
{
    cluster::ResilienceSpec spec;
    spec.retry.enabled = true;
    spec.retry.max_attempts = 1;
    spec.retry.base_backoff_cycles = 0;
    spec.retry.backoff_multiplier = 0.5;
    spec.retry.jitter_frac = -0.1;
    auto errors = spec.validate();
    EXPECT_TRUE(anyErrorContains(errors, "retry.max_attempts"));
    EXPECT_TRUE(anyErrorContains(errors, "retry.base_backoff_cycles"));
    EXPECT_TRUE(anyErrorContains(errors, "retry.backoff_multiplier"));
    EXPECT_TRUE(anyErrorContains(errors, "retry.jitter_frac"));
}

TEST(ResilienceSpecValidate, RejectsDegenerateHedgeWindow)
{
    cluster::ResilienceSpec spec;
    spec.hedge.enabled = true;
    spec.hedge.window = 0;
    spec.hedge.min_samples = 0;
    spec.hedge.max_hedge_fraction = 0.0;
    auto errors = spec.validate();
    EXPECT_TRUE(anyErrorContains(errors, "hedge.window"));
    EXPECT_TRUE(anyErrorContains(errors, "hedge.min_samples"));
    EXPECT_TRUE(anyErrorContains(errors, "hedge.max_hedge_fraction"));
}

TEST(ResilienceSpecValidate, RejectsBadAdmissionKnobs)
{
    cluster::AdmissionConfig cfg;
    cfg.background_fraction = 1.5;
    EXPECT_TRUE(anyErrorContains(cfg.validate(),
                                 "admission.background_fraction"));

    cfg = cluster::AdmissionConfig{};
    cfg.policy = cluster::AdmissionPolicy::TokenBucket;
    cfg.rate_factor = 0.0;
    cfg.burst = 0.5;
    auto errors = cfg.validate();
    EXPECT_TRUE(anyErrorContains(errors, "admission.rate_factor"));
    EXPECT_TRUE(anyErrorContains(errors, "admission.burst"));

    cfg = cluster::AdmissionConfig{};
    cfg.policy = cluster::AdmissionPolicy::QueueDepth;
    cfg.target_backlog = 0.0;
    cfg.interval_cycles = 0;
    errors = cfg.validate();
    EXPECT_TRUE(anyErrorContains(errors, "admission.target_backlog"));
    EXPECT_TRUE(anyErrorContains(errors, "admission.interval_cycles"));

    cfg = cluster::AdmissionConfig{};
    cfg.policy = cluster::AdmissionPolicy::PriorityShed;
    cfg.background_watermark = 4.0;
    cfg.inference_watermark = 4.0;
    EXPECT_TRUE(anyErrorContains(cfg.validate(),
                                 "admission.inference_watermark"));
}

TEST(ResilienceSpecValidate, RejectsBadBreakerKnobs)
{
    cluster::BreakerConfig cfg;
    cfg.enabled = false;
    cfg.trip_failures = 0; // ignored while disabled
    EXPECT_TRUE(cfg.validate().empty());

    cfg.enabled = true;
    cfg.probe_interval_cycles = 0;
    cfg.cooldown_cycles = 0;
    cfg.halfopen_probes = 0;
    cfg.latency_trip_cycles = -1.0;
    auto errors = cfg.validate();
    EXPECT_TRUE(anyErrorContains(errors, "breaker.trip_failures"));
    EXPECT_TRUE(anyErrorContains(errors, "breaker.probe_interval_cycles"));
    EXPECT_TRUE(anyErrorContains(errors, "breaker.cooldown_cycles"));
    EXPECT_TRUE(anyErrorContains(errors, "breaker.halfopen_probes"));
    EXPECT_TRUE(anyErrorContains(errors, "breaker.latency_trip_cycles"));
}

// ---------------------------------------------------------------------
// Admission policies.

TEST(AdmissionController, TokenBucketClipsAboveTheRefillRate)
{
    cluster::AdmissionConfig cfg;
    cfg.policy = cluster::AdmissionPolicy::TokenBucket;
    cfg.burst = 4.0;
    // 0.01 tokens per cycle; offering every cycle overruns 100x.
    cluster::AdmissionController ctl(cfg, 0.01);
    std::uint64_t admitted = 0;
    for (Tick t = 0; t < 10000; ++t)
        admitted += ctl.offer(t, false, 0.0) ? 1 : 0;
    // Burst drains first, then admission tracks the refill rate.
    EXPECT_GE(admitted, 100u);
    EXPECT_LE(admitted, 110u);
    EXPECT_EQ(ctl.stats().offered, 10000u);
    EXPECT_EQ(ctl.stats().admitted, admitted);
    EXPECT_EQ(ctl.stats().shed_rate_limited, 10000u - admitted);
}

TEST(AdmissionController, CoDelShedsOnlyAfterSustainedExcursion)
{
    cluster::AdmissionConfig cfg;
    cfg.policy = cluster::AdmissionPolicy::QueueDepth;
    cfg.target_backlog = 4.0;
    cfg.interval_cycles = 1000;
    cluster::AdmissionController ctl(cfg, 0.0);

    // Backlog above target, but shorter than one interval: no sheds.
    for (Tick t = 0; t < 999; ++t)
        EXPECT_TRUE(ctl.offer(t, false, 10.0));
    // Backlog recovers; the excursion clock resets.
    EXPECT_TRUE(ctl.offer(1000, false, 1.0));
    EXPECT_EQ(ctl.stats().shed_queue, 0u);

    // A full interval above target starts the CoDel drop cadence.
    std::uint64_t shed = 0;
    for (Tick t = 2000; t < 12000; ++t)
        shed += ctl.offer(t, false, 10.0) ? 0 : 1;
    EXPECT_GT(shed, 0u);
    EXPECT_EQ(ctl.stats().shed_queue, shed);
    // Drops stay paced (interval/sqrt(n)), nowhere near one-per-tick.
    EXPECT_LT(shed, 200u);
}

TEST(AdmissionController, PriorityShedsBackgroundBeforeInference)
{
    cluster::AdmissionConfig cfg;
    cfg.policy = cluster::AdmissionPolicy::PriorityShed;
    cfg.background_watermark = 2.0;
    cfg.inference_watermark = 8.0;
    cluster::AdmissionController ctl(cfg, 0.0);

    // Below both watermarks: everything passes.
    EXPECT_TRUE(ctl.offer(0, true, 1.0));
    EXPECT_TRUE(ctl.offer(1, false, 1.0));
    // Between the watermarks: background sheds, inference passes.
    EXPECT_FALSE(ctl.offer(2, true, 4.0));
    EXPECT_TRUE(ctl.offer(3, false, 4.0));
    // Above the inference watermark: both shed.
    EXPECT_FALSE(ctl.offer(4, true, 9.0));
    EXPECT_FALSE(ctl.offer(5, false, 9.0));

    EXPECT_EQ(ctl.stats().shed_background, 2u);
    EXPECT_EQ(ctl.stats().shed_inference, 1u);
    EXPECT_EQ(ctl.stats().offered, 6u);
    EXPECT_EQ(ctl.stats().offered_background, 3u);
    EXPECT_EQ(ctl.stats().admitted, 3u);
}

TEST(AdmissionStats, MergeAccumulatesEveryCounter)
{
    cluster::AdmissionStats a, b;
    a.offered = 1;
    a.admitted = 1;
    b.offered = 10;
    b.offered_background = 2;
    b.admitted = 5;
    b.shed_rate_limited = 1;
    b.shed_queue = 2;
    b.shed_background = 1;
    b.shed_inference = 1;
    b.deadline_missed = 3;
    a.merge(b);
    EXPECT_EQ(a.offered, 11u);
    EXPECT_EQ(a.offered_background, 2u);
    EXPECT_EQ(a.admitted, 6u);
    EXPECT_EQ(a.totalShed(), 5u);
    EXPECT_EQ(a.deadline_missed, 3u);

    // Merging a default-constructed record is exactly a no-op.
    cluster::AdmissionStats before = a, zero;
    a.merge(zero);
    EXPECT_EQ(a.offered, before.offered);
    EXPECT_EQ(a.totalShed(), before.totalShed());
}

// ---------------------------------------------------------------------
// Circuit breaker state machine.

TEST(CircuitBreaker, WalksClosedOpenHalfOpenClosed)
{
    cluster::BreakerConfig cfg;
    cfg.enabled = true;
    cfg.trip_failures = 3;
    cfg.probe_interval_cycles = 10;
    cfg.cooldown_cycles = 100;
    cfg.halfopen_probes = 2;
    cluster::CircuitBreaker br(cfg);

    using State = cluster::CircuitBreaker::State;
    EXPECT_EQ(br.state(), State::Closed);
    EXPECT_TRUE(br.allows(0));

    // Two bad probes are not enough; the third trips it.
    br.observe(10, false);
    br.observe(20, false);
    EXPECT_EQ(br.state(), State::Closed);
    br.observe(30, false);
    EXPECT_EQ(br.state(), State::Open);
    EXPECT_EQ(br.opens(), 1u);
    EXPECT_FALSE(br.allows(50));

    // Cooldown elapses: allows() advances Open -> HalfOpen.
    EXPECT_TRUE(br.allows(131));
    EXPECT_EQ(br.state(), State::HalfOpen);

    // One good probe is not enough; the second closes it.
    br.observe(140, true);
    EXPECT_EQ(br.state(), State::HalfOpen);
    br.observe(150, true);
    EXPECT_EQ(br.state(), State::Closed);
    EXPECT_EQ(br.closes(), 1u);
}

TEST(CircuitBreaker, HalfOpenReopensOnOneBadProbe)
{
    cluster::BreakerConfig cfg;
    cfg.enabled = true;
    cfg.trip_failures = 1;
    cfg.probe_interval_cycles = 10;
    cfg.cooldown_cycles = 100;
    cfg.halfopen_probes = 2;
    cluster::CircuitBreaker br(cfg);

    using State = cluster::CircuitBreaker::State;
    br.observe(10, false);
    EXPECT_EQ(br.state(), State::Open);
    EXPECT_TRUE(br.allows(111));
    EXPECT_EQ(br.state(), State::HalfOpen);
    br.observe(120, false);
    EXPECT_EQ(br.state(), State::Open);
    EXPECT_EQ(br.reopens(), 1u);
    // The cooldown restarted at the reopen.
    EXPECT_FALSE(br.allows(130));
    EXPECT_TRUE(br.allows(221));
    EXPECT_EQ(br.state(), State::HalfOpen);
}

TEST(CircuitBreaker, ProbesAreRateLimited)
{
    cluster::BreakerConfig cfg;
    cfg.enabled = true;
    cfg.trip_failures = 3;
    cfg.probe_interval_cycles = 100;
    cluster::CircuitBreaker br(cfg);

    // A burst of failures inside one probe interval is ONE probe.
    for (Tick t = 0; t < 50; ++t)
        br.observe(t, false);
    EXPECT_EQ(br.state(), cluster::CircuitBreaker::State::Closed);
    br.observe(100, false);
    br.observe(200, false);
    EXPECT_EQ(br.state(), cluster::CircuitBreaker::State::Open);
}

// ---------------------------------------------------------------------
// Chaos materialization.

TEST(MaterializeChaos, IsDeterministicAndSeedSensitive)
{
    fault::ChaosPlan plan;
    plan.seed = 42;
    plan.crash.rate_per_replica_s = 40.0;
    plan.crash.mttr_s = 0.002;
    plan.storm.rate_per_s = 100.0;
    plan.storm.duration_s = 0.002;
    plan.crowd.rate_per_s = 50.0;
    plan.crowd.duration_s = 0.002;

    auto a = fault::materializeChaos(plan, 4, 0.1);
    auto b = fault::materializeChaos(plan, 4, 0.1);
    ASSERT_EQ(a.outages.size(), b.outages.size());
    for (std::size_t i = 0; i < a.outages.size(); ++i) {
        EXPECT_EQ(a.outages[i].replica, b.outages[i].replica);
        EXPECT_EQ(a.outages[i].from_s, b.outages[i].from_s);
        EXPECT_EQ(a.outages[i].to_s, b.outages[i].to_s);
    }
    ASSERT_EQ(a.surges.size(), b.surges.size());
    EXPECT_GT(a.outages.size(), 0u);
    EXPECT_GT(a.surges.size(), 0u);

    plan.seed = 43;
    auto c = fault::materializeChaos(plan, 4, 0.1);
    bool differs = c.outages.size() != a.outages.size();
    for (std::size_t i = 0;
         !differs && i < std::min(a.outages.size(), c.outages.size());
         ++i)
        differs = a.outages[i].from_s != c.outages[i].from_s;
    EXPECT_TRUE(differs) << "reseeding must move the chaos events";
}

TEST(MaterializeChaos, ComponentsAreDecorrelated)
{
    // Zeroing the storm policy must not move the crash draws: each
    // component forks its own RNG stream from the plan seed.
    fault::ChaosPlan both;
    both.crash.rate_per_replica_s = 40.0;
    both.crash.mttr_s = 0.002;
    both.storm.rate_per_s = 100.0;
    both.storm.duration_s = 0.002;

    fault::ChaosPlan crash_only = both;
    crash_only.storm.rate_per_s = 0.0;

    auto a = fault::materializeChaos(both, 3, 0.1);
    auto b = fault::materializeChaos(crash_only, 3, 0.1);
    ASSERT_EQ(a.outages.size(), b.outages.size());
    for (std::size_t i = 0; i < a.outages.size(); ++i)
        EXPECT_EQ(a.outages[i].from_s, b.outages[i].from_s);
}

TEST(MaterializeChaos, ExpandsTheEveryReplicaSentinel)
{
    fault::ChaosPlan plan;
    plan.scheduled_outages.push_back(
        {fault::kEveryReplica, 0.01, 0.02});
    auto m = fault::materializeChaos(plan, 3, 0.1);
    ASSERT_EQ(m.outages.size(), 3u);
    for (std::size_t r = 0; r < 3; ++r) {
        EXPECT_EQ(m.outages[r].replica, r);
        EXPECT_DOUBLE_EQ(m.outages[r].from_s, 0.01);
        EXPECT_DOUBLE_EQ(m.outages[r].to_s, 0.02);
    }
}

TEST(MaterializeChaos, NamedScenariosValidateAndMaterialize)
{
    for (const auto &name : fault::chaosScenarioNames()) {
        auto plan = fault::chaosScenario(name, 0.1);
        EXPECT_TRUE(plan.enabled()) << name;
        EXPECT_TRUE(plan.validate().empty()) << name;
        auto m = fault::materializeChaos(plan, 4, 0.1);
        EXPECT_GT(m.outages.size() + m.surges.size() +
                      m.replica_faults.size(),
                  0u)
            << name;
    }
}

// ---------------------------------------------------------------------
// Surge-aware arrival generation.

TEST(GenerateCandidateTicks, NoSurgeReplaysTheLegacyRecipe)
{
    // The no-surge path must replay RequestDispatcher's arrival recipe
    // bit for bit: Rng(seed * 7919 + 1), exponential waits,
    // `t += Tick(wait) + 1`, one candidate past the horizon.
    const double rate = 1e-4;
    const std::uint64_t seed = 7;
    const Tick horizon = 500000;
    auto ticks = cluster::generateCandidateTicks(rate, seed, horizon);

    std::vector<Tick> expect;
    Rng rng(seed * 7919 + 1);
    Tick t = 0;
    while (true) {
        t += static_cast<Tick>(rng.exponential(rate)) + 1;
        expect.push_back(t);
        if (t > horizon)
            break;
    }
    ASSERT_EQ(ticks.size(), expect.size());
    for (std::size_t i = 0; i < ticks.size(); ++i)
        ASSERT_EQ(ticks[i], expect[i]) << "tick " << i;
}

TEST(GenerateCandidateTicks, SurgeWindowsDensifyArrivals)
{
    const double rate = 1e-4;
    const Tick horizon = 2000000;
    std::vector<cluster::RouterSurge> surges{
        {500000, 1000000, 3.0}};
    auto ticks =
        cluster::generateCandidateTicks(rate, 11, horizon, surges);

    auto countIn = [&](Tick lo, Tick hi) {
        return std::count_if(ticks.begin(), ticks.end(),
                             [&](Tick t) { return t >= lo && t < hi; });
    };
    // Equal-length windows: the surge window should hold ~3x the
    // arrivals of a calm window of the same length.
    auto calm = countIn(1500000, 2000000);
    auto surged = countIn(500000, 1000000);
    EXPECT_GT(surged, 2 * calm);
    EXPECT_LT(surged, 4 * calm);

    // Determinism: same inputs, same stream.
    auto again =
        cluster::generateCandidateTicks(rate, 11, horizon, surges);
    EXPECT_EQ(ticks, again);

    // Arrivals stay strictly ordered and the stream covers the horizon.
    EXPECT_TRUE(std::is_sorted(ticks.begin(), ticks.end()));
    EXPECT_GT(ticks.back(), horizon);
}

// ---------------------------------------------------------------------
// ControlPlane behaviour.

TEST(ControlPlane, TaggingOnlySpecRoutesIdenticallyToTheRouter)
{
    // A spec with only priority tagging enabled must not perturb
    // routing: the control plane's traces are byte-identical to the
    // bare router's. This is the no-op-control-plane identity that
    // keeps golden digests valid.
    cluster::ResilienceSpec spec;
    spec.admission.background_fraction = 0.25;
    ASSERT_TRUE(spec.enabled());

    const double mu = 1e-3;
    const Tick horizon = 4000000;
    cluster::ControlPlane cp(spec,
                             cluster::RoutingPolicy::JoinShortestQueue,
                             3, mu, 64, {});
    auto a = cp.route(2.4e-3, 5, horizon);

    cluster::Router router(cluster::RoutingPolicy::JoinShortestQueue, 3,
                           mu, 64, {});
    auto b = testutil::routeFlat(router, 2.4e-3, 5, horizon);

    ASSERT_EQ(a.traces.size(), b.traces.size());
    for (std::size_t r = 0; r < a.traces.size(); ++r)
        EXPECT_EQ(a.traces[r], b.traces[r]) << "replica " << r;
    EXPECT_EQ(a.generated, b.generated);
    EXPECT_EQ(a.shed, b.shed);
    // Tagging only fills the offered/dispatched split.
    EXPECT_GT(cp.stats().dispatched_background, 0u);
    EXPECT_LT(cp.stats().dispatched_background, cp.stats().dispatched);
}

TEST(ControlPlane, RetriesRecoverAFleetWideOutage)
{
    cluster::ResilienceSpec spec;
    spec.retry.enabled = true;
    spec.retry.max_attempts = 6;
    spec.retry.max_budget = 1e6;
    spec.retry.base_backoff_cycles = 200000;
    spec.retry.backoff_multiplier = 2.0;

    const double mu = 1e-3;
    const Tick horizon = 4000000;
    // Fleet-wide outage mid-run, far enough from the horizon that
    // every backed-off retry lands inside the run.
    std::vector<cluster::RouterOutage> outages{
        {0, 1000000, 1400000}, {1, 1000000, 1400000}};
    cluster::ControlPlane cp(spec, cluster::RoutingPolicy::RoundRobin,
                             2, mu, 64, outages);
    auto res = cp.route(1.6e-3, 9, horizon);
    const auto &s = cp.stats();

    EXPECT_GT(s.retry_attempts, 0u);
    EXPECT_GT(s.retry_recovered, 0u);
    EXPECT_EQ(s.outage_shed, 0u);
    EXPECT_EQ(s.retry_shed, 0u);
    EXPECT_EQ(res.shed, 0u);

    // The same run without retries sheds the outage window.
    cluster::ResilienceSpec off;
    off.admission.background_fraction = 0.0;
    off.admission.deadline_cycles = 1; // keep the plane enabled
    cluster::ControlPlane bare(off, cluster::RoutingPolicy::RoundRobin,
                               2, mu, 64, outages);
    auto base = bare.route(1.6e-3, 9, horizon);
    EXPECT_GT(base.shed, 0u);
    EXPECT_EQ(base.generated, bare.stats().dispatched + base.shed);
    // What the shed-only plane dropped is what retries recovered.
    EXPECT_EQ(base.shed, s.retry_recovered);
}

TEST(ControlPlane, ConservationIdentitiesHoldUnderChaos)
{
    cluster::ResilienceSpec spec;
    spec.admission.policy = cluster::AdmissionPolicy::PriorityShed;
    spec.admission.background_fraction = 0.3;
    spec.admission.background_watermark = 1.0;
    spec.admission.inference_watermark = 6.0;
    spec.retry.enabled = true;
    spec.retry.max_attempts = 3;
    spec.retry.max_budget = 64.0;
    spec.retry.base_backoff_cycles = 50000;
    spec.hedge.enabled = true;
    spec.hedge.latency_factor = 1.0;
    spec.hedge.window = 64;
    spec.hedge.min_samples = 16;
    spec.breaker.enabled = true;
    spec.breaker.probe_interval_cycles = 10000;
    spec.breaker.cooldown_cycles = 200000;

    const double mu = 1e-3;
    const Tick horizon = 6000000;
    std::vector<cluster::RouterOutage> outages{
        {0, 1000000, 1600000},
        {1, 1000000, 1600000},
        {2, 3000000, 3300000}};
    std::vector<cluster::RouterSurge> surges{
        {2000000, 2600000, 2.5}};

    for (std::uint64_t seed : {1ull, 17ull, 99ull}) {
        cluster::ControlPlane cp(
            spec, cluster::RoutingPolicy::JoinShortestQueue, 3, mu, 64,
            outages);
        // Offered rate 2.4x one replica's capacity across 3 replicas.
        auto res = cp.route(2.4e-3, seed, horizon, surges);
        const auto &s = cp.stats();

        // Every generated candidate either dispatched or shed.
        EXPECT_EQ(res.generated, s.dispatched + s.totalShed())
            << "seed " << seed;
        // Every admitted candidate dispatched or died post-admission.
        EXPECT_EQ(s.admission.admitted,
                  s.dispatched + s.retry_shed + s.outage_shed)
            << "seed " << seed;
        // Replica assignments are dispatches plus hedge duplicates.
        std::uint64_t assigned = 0;
        for (auto a : res.assigned)
            assigned += a;
        EXPECT_EQ(assigned, s.dispatched + s.hedges_issued)
            << "seed " << seed;
        // Priority split covers all sheds.
        EXPECT_EQ(s.totalShed(),
                  s.shed_background_total + s.shed_inference_total)
            << "seed " << seed;
        // Hedge wins cannot exceed hedges; recoveries need attempts.
        EXPECT_LE(s.hedge_wins, s.hedges_issued);
        EXPECT_LE(s.retry_recovered, s.retry_attempts);
        // Every candidate is pending before the first offer; only
        // retries wait in the retry heap, never more than were tried.
        EXPECT_EQ(s.dispatch_heap_high_water,
                  static_cast<std::size_t>(res.generated))
            << "seed " << seed;
        EXPECT_LE(s.retry_heap_high_water, s.retry_attempts)
            << "seed " << seed;
    }
}

TEST(ControlPlane, RetryHeapHoldsOnlyPendingRetries)
{
    // The retry-heavy path: a fleet-wide outage re-offers every
    // candidate that lands in it. The pending attempts still peak at
    // the candidate count, while the retry heap only ever holds the
    // retries in flight -- at most the candidates of one outage.
    cluster::ResilienceSpec spec;
    spec.retry.enabled = true;
    spec.retry.max_attempts = 6;
    spec.retry.max_budget = 1e6;
    spec.retry.base_backoff_cycles = 100000;

    const double mu = 1e-3;
    const Tick horizon = 4000000;
    std::vector<cluster::RouterOutage> outages{
        {0, 500000, 1500000}, {1, 500000, 1500000}};
    cluster::ControlPlane cp(spec, cluster::RoutingPolicy::RoundRobin,
                             2, mu, 64, outages);
    auto res = cp.route(1.6e-3, 7, horizon);
    const auto &s = cp.stats();
    EXPECT_GT(s.retry_attempts, 0u);
    EXPECT_GT(s.dispatch_heap_high_water, 0u);
    EXPECT_EQ(s.dispatch_heap_high_water,
              static_cast<std::size_t>(res.generated));
    EXPECT_GT(s.retry_heap_high_water, 0u);
    EXPECT_LE(s.retry_heap_high_water, s.retry_attempts);
    EXPECT_LT(s.retry_heap_high_water,
              static_cast<std::size_t>(res.generated) / 2);
}

TEST(ControlPlane, HedgeBudgetCapsDuplicates)
{
    cluster::ResilienceSpec spec;
    spec.hedge.enabled = true;
    spec.hedge.latency_factor = 1.0;
    spec.hedge.window = 64;
    spec.hedge.min_samples = 16;
    spec.hedge.max_hedge_fraction = 0.05;

    const double mu = 1e-3;
    cluster::ControlPlane cp(spec, cluster::RoutingPolicy::RoundRobin,
                             3, mu, 64, {});
    // Heavy overload: without the budget, most estimates beat the
    // window p99 and hedging would run away.
    cp.route(6e-3, 3, 4000000);
    const auto &s = cp.stats();
    EXPECT_GT(s.hedges_issued, 0u);
    EXPECT_LE(static_cast<double>(s.hedges_issued),
              0.05 * static_cast<double>(s.dispatched) + 1.0);
}

} // namespace
} // namespace equinox
