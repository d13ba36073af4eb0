/**
 * @file
 * The overload-resilience control plane of the cluster front-end.
 *
 * An optional stage of the one routing pipeline, between the candidate
 * stream and the FleetRouter (the flat fleet is its one-shard case),
 * that layers four mechanisms over plain routing (DESIGN.md section
 * 2.5):
 *
 *   admission -> routing -> hedging -> circuit breaking
 *
 *   - An AdmissionController sheds at the front door (token bucket,
 *     CoDel on the estimated backlog, or priority watermarks).
 *   - A client-side retry budget re-offers candidates that found no
 *     available replica, with exponential backoff and seeded jitter,
 *     bounded by a token budget refilled by successful dispatches.
 *   - A hedging layer duplicates a dispatch whose latency estimate
 *     exceeds latency_factor x the sliding-window p99 of recent
 *     estimates, onto the best alternate replica in the primary's
 *     shard; first-wins
 *     cancellation is accounted against the router's causal model
 *     (the predicted-faster copy "wins"), while both copies occupy
 *     real replica capacity -- the honest cost of hedging.
 *   - Per-replica CircuitBreakers veto routing to replicas whose
 *     health probes (outage state + window-p99 latency) keep failing;
 *     the veto composes with the autoscaler's routability, and a shard
 *     whose replicas are all vetoed is skipped at the shard tier.
 *
 * Every post-admission pick, retries included, is a FleetRouter pick,
 * so the autoscaler counts it as offered load.
 *
 * Determinism: candidates, priority tags, retry jitter, and chaos all
 * draw from separate seeded Rng streams; the candidate stream is
 * merged in tick order with a heap of backed-off retries (a fresh
 * candidate first on a tie), so per-replica traces stay
 * non-decreasing and a run is a pure function of
 * (spec, rate, seed, horizon, surges). With every mechanism disabled
 * the Cluster never constructs a ControlPlane at all, so golden
 * digests are untouched.
 */

#ifndef EQUINOX_CLUSTER_CONTROL_PLANE_HH
#define EQUINOX_CLUSTER_CONTROL_PLANE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/admission.hh"
#include "cluster/circuit_breaker.hh"
#include "cluster/fleet.hh"
#include "cluster/router.hh"
#include "common/min_heap.hh"
#include "common/random.hh"
#include "stats/sliding_window.hh"

namespace equinox
{
namespace cluster
{

/** Client-side retry budget over the router (defaults: off). */
struct RetryConfig
{
    bool enabled = false;
    /** Total attempts per candidate including the first (>= 2). */
    unsigned max_attempts = 3;
    /** Retry-token bucket depth; the budget starts full. */
    double max_budget = 32.0;
    /** Tokens deposited per successfully dispatched primary. */
    double budget_ratio = 0.1;
    /** First backoff wait, in cycles. */
    Tick base_backoff_cycles = 2000;
    /** Geometric backoff growth per attempt. */
    double backoff_multiplier = 2.0;
    /** Uniform jitter fraction added to each wait (seeded stream). */
    double jitter_frac = 0.25;
};

/** Hedged-request layer (defaults: off). */
struct HedgeConfig
{
    bool enabled = false;
    /** Hedge when the estimate exceeds factor x window p99 (> 0). */
    double latency_factor = 2.0;
    /** Sliding window of recent dispatch estimates. */
    std::size_t window = 128;
    /** Estimates required before hedging starts (warm-up guard). */
    std::size_t min_samples = 16;
    /**
     * Hedge budget: duplicates are suppressed once they exceed this
     * fraction of dispatched requests, so overload (which pushes every
     * estimate past the window p99) cannot trigger a hedge storm that
     * doubles the offered load. In (0, 1].
     */
    double max_hedge_fraction = 0.02;
};

/** Everything the resilience control plane can switch on. */
struct ResilienceSpec
{
    AdmissionConfig admission;
    RetryConfig retry;
    HedgeConfig hedge;
    BreakerConfig breaker;
    /**
     * Cluster-wide graceful degradation: when the mean backlog spends
     * part of the run above training_shed_backlog, the training
     * coordinator sheds that fraction of its training replicas --
     * training gives back its free cycles before inference suffers.
     */
    bool shed_training_under_overload = false;
    double training_shed_backlog = 2.0;

    /** True when any mechanism (or priority tagging) is active. */
    bool enabled() const;

    /** Actionable configuration errors; empty when usable. */
    std::vector<std::string> validate() const;
};

/** FaultStats-style accounting of one control-plane routing pass. */
struct ResilienceStats
{
    AdmissionStats admission;

    /** Primary dispatches (candidates that reached a replica). */
    std::uint64_t dispatched = 0;
    std::uint64_t dispatched_background = 0;

    std::uint64_t retry_attempts = 0;
    /** Retried candidates that eventually dispatched. */
    std::uint64_t retry_recovered = 0;
    /** Candidates shed after at least one retry. */
    std::uint64_t retry_shed = 0;
    /** Retries denied because the token budget ran dry. */
    std::uint64_t retry_budget_exhausted = 0;
    /** Candidates shed with no replica available and no retry left. */
    std::uint64_t outage_shed = 0;
    /** Picks that failed although an outage-alive replica existed. */
    std::uint64_t breaker_denials = 0;

    std::uint64_t hedges_issued = 0;
    /** Hedges whose duplicate was predicted to beat the primary. */
    std::uint64_t hedge_wins = 0;

    std::uint64_t breaker_opens = 0;
    std::uint64_t breaker_reopens = 0;
    std::uint64_t breaker_closes = 0;

    /** Sheds of any cause, split by the candidate's priority tag. */
    std::uint64_t shed_background_total = 0;
    std::uint64_t shed_inference_total = 0;

    /** Candidates that arrived with the fleet over the training-shed
     *  backlog threshold (drives the degradation fraction). */
    std::uint64_t overload_candidates = 0;

    /**
     * Most dispatch attempts pending at once: fresh candidates not yet
     * offered plus backed-off retries. All candidates are pending
     * before the first offer, and each round takes one attempt and
     * re-offers at most one retry, so this is the candidate count.
     */
    std::size_t dispatch_heap_high_water = 0;
    /** Most retries the retry heap held at once. */
    std::size_t retry_heap_high_water = 0;
    /** Training replicas the coordinator shed (filled by Cluster). */
    std::size_t training_replicas_shed = 0;

    /** All candidates shed by any mechanism. */
    std::uint64_t
    totalShed() const
    {
        return admission.totalShed() + retry_shed + outage_shed;
    }
};

/** Admission + retries + hedging + breakers, a stage over a FleetRouter. */
class ControlPlane
{
  public:
    /**
     * A stage over @p router, which must outlive this ControlPlane.
     * The breakers become the router's health veto; the token bucket
     * refills at admission.rate_factor x replicas x service rate of
     * the router's config.
     * @param spec validated resilience knobs
     */
    ControlPlane(const ResilienceSpec &spec, FleetRouter &router);

    /**
     * The one-shard case: a stage over its own flat FleetRouter, one
     * shard of @p replicas under @p policy.
     */
    ControlPlane(const ResilienceSpec &spec, RoutingPolicy policy,
                 std::size_t replicas, double service_rate_per_cycle,
                 std::size_t latency_window,
                 std::vector<RouterOutage> outages);

    /** The router's health veto points back at this object. */
    ControlPlane(const ControlPlane &) = delete;
    ControlPlane &operator=(const ControlPlane &) = delete;

    /**
     * Route one run's candidate stream through the control plane.
     * Same contract as FleetRouter::route, plus: RouterResult::shed
     * counts every control-plane shed (stats().totalShed()), and the
     * conservation identities become
     *   generated == dispatched + shed
     *   sum(assigned) == dispatched + hedges_issued.
     */
    RouterResult route(double rate_per_cycle, std::uint64_t seed,
                       Tick max_ticks,
                       const std::vector<RouterSurge> &surges = {});

    /**
     * route() one dispatch round at a time: beginRoute(), then step()
     * until it returns false, then finishRoute(). Each step takes the
     * earlier of @p stream's head and the first backed-off retry (the
     * head on a tie) and records in @p out the replicas it assigned
     * the round's tick to -- none when the round shed the candidate or
     * backed it off. @p stream must be the same object on every step.
     */
    void beginRoute(std::uint64_t seed, Tick max_ticks);
    bool step(ArrivalStream &stream, RouteStep &out);
    /** Close the pass: the final stats() and the router's horizon. */
    void finishRoute(Tick max_ticks);

    /** Candidates step() has pulled from its stream. */
    std::uint64_t generated() const { return generated_; }

    const ResilienceStats &stats() const { return stats_; }

    /** Fraction of candidates that arrived during fleet overload. */
    double overloadFraction() const;

  private:
    ControlPlane(const ResilienceSpec &spec,
                 std::unique_ptr<FleetRouter> owned);

    /** One dispatch attempt: a fresh candidate or a backed-off retry. */
    struct DispatchEvent
    {
        Tick t = 0;
        std::uint64_t seq = 0; //!< retry push order: FIFO at equal ticks
        unsigned attempt = 0;  //!< 0 = first offer, > 0 = retry
        bool background = false;
    };
    struct LaterEvent
    {
        bool
        operator()(const DispatchEvent &a, const DispatchEvent &b) const
        {
            if (a.t != b.t)
                return a.t > b.t;
            return a.seq > b.seq;
        }
    };

    void observeHealth(Tick t);
    bool pullFresh(ArrivalStream &stream);
    void shedPriority(bool background);

    ResilienceSpec spec_;
    std::size_t replicas_;
    /** Set by the one-shard constructor only. */
    std::unique_ptr<FleetRouter> owned_;
    FleetRouter &router_;
    AdmissionController admission_;
    std::vector<CircuitBreaker> breakers_;
    ResilienceStats stats_;

    // -- the routing pass in progress (beginRoute() resets it) --------
    Rng priority_rng_;
    Rng jitter_rng_;
    /** The stream's next candidate, tagged; valid when have_head_. */
    DispatchEvent head_;
    bool started_ = false;
    bool have_head_ = false;
    ReservedMinHeap<DispatchEvent, LaterEvent> retries_;
    std::uint64_t retry_seq_ = 0;
    std::uint64_t fresh_popped_ = 0;
    std::uint64_t generated_ = 0;
    double retry_tokens_ = 0.0;
    stats::SlidingWindow hedge_window_;
};

} // namespace cluster
} // namespace equinox

#endif // EQUINOX_CLUSTER_CONTROL_PLANE_HH
