#include "cluster/control_plane.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hh"

namespace equinox
{
namespace cluster
{

namespace
{

// Per-stream seed decorrelation: the priority tags and the retry
// jitter draw from their own Rng streams, so switching retries on
// never perturbs the candidate ticks or the priority split.
constexpr std::uint64_t kPriorityStream = 104729ull;
constexpr std::uint64_t kJitterStream = 130363ull;

} // namespace

bool
ResilienceSpec::enabled() const
{
    return admission.policy != AdmissionPolicy::None ||
           admission.background_fraction > 0.0 ||
           admission.deadline_cycles > 0 || retry.enabled ||
           hedge.enabled || breaker.enabled ||
           shed_training_under_overload;
}

std::vector<std::string>
ResilienceSpec::validate() const
{
    std::vector<std::string> errors = admission.validate();
    for (auto &e : breaker.validate())
        errors.push_back(std::move(e));
    auto complain = [&errors](auto &&...parts) {
        std::ostringstream oss;
        (oss << ... << parts);
        errors.push_back(oss.str());
    };

    if (retry.enabled) {
        if (retry.max_attempts < 2) {
            complain("retry.max_attempts must be >= 2 when retries are "
                     "enabled (got ", retry.max_attempts,
                     "); the first attempt is not a retry");
        }
        if (retry.max_budget <= 0.0) {
            complain("retry.max_budget must be positive when retries "
                     "are enabled (got ", retry.max_budget,
                     "); a zero budget sheds every retry it allows");
        }
        if (retry.budget_ratio < 0.0) {
            complain("retry.budget_ratio must be >= 0 (got ",
                     retry.budget_ratio, ")");
        }
        if (retry.base_backoff_cycles == 0) {
            complain("retry.base_backoff_cycles must be >= 1 when "
                     "retries are enabled; an instant retry re-offers "
                     "into the same outage window");
        }
        if (retry.backoff_multiplier < 1.0) {
            complain("retry.backoff_multiplier must be >= 1 (got ",
                     retry.backoff_multiplier,
                     "); shrinking backoff invites livelock");
        }
        if (retry.jitter_frac < 0.0) {
            complain("retry.jitter_frac must be >= 0 (got ",
                     retry.jitter_frac, ")");
        }
    }
    if (hedge.enabled) {
        if (hedge.latency_factor <= 0.0) {
            complain("hedge.latency_factor must be > 0 when hedging is "
                     "enabled (got ", hedge.latency_factor,
                     "); a non-positive threshold hedges every "
                     "request");
        }
        if (hedge.window == 0) {
            complain("hedge.window must be >= 1 when hedging is "
                     "enabled");
        }
        if (hedge.min_samples == 0 ||
            hedge.min_samples > hedge.window) {
            complain("hedge.min_samples must be in [1, hedge.window] "
                     "(got ", hedge.min_samples, " with window ",
                     hedge.window, ")");
        }
        if (hedge.max_hedge_fraction <= 0.0 ||
            hedge.max_hedge_fraction > 1.0) {
            complain("hedge.max_hedge_fraction must be in (0, 1] (got ",
                     hedge.max_hedge_fraction,
                     "); the hedge budget caps duplicates as a "
                     "fraction of dispatched requests");
        }
    }
    if (shed_training_under_overload && training_shed_backlog <= 0.0) {
        complain("training_shed_backlog must be positive when "
                 "shed_training_under_overload is set (got ",
                 training_shed_backlog,
                 "); a zero threshold sheds training permanently");
    }
    return errors;
}

ControlPlane::ControlPlane(const ResilienceSpec &spec,
                           FleetRouter &router)
    : spec_(spec), replicas_(router.config().replicas), router_(router),
      admission_(spec.admission,
                 spec.admission.rate_factor *
                     static_cast<double>(replicas_) *
                     router.config().service_rate_per_cycle),
      // Only read with hedging on, where validate() guarantees
      // window >= 1; beginRoute() resets it.
      hedge_window_(1)
{
    if (spec_.breaker.enabled) {
        breakers_.reserve(replicas_);
        for (std::size_t r = 0; r < replicas_; ++r)
            breakers_.emplace_back(spec_.breaker);
        router_.setHealthVeto([this](std::size_t r, Tick t) {
            return breakers_[r].allows(t);
        });
    }
}

ControlPlane::ControlPlane(const ResilienceSpec &spec,
                           RoutingPolicy policy, std::size_t replicas,
                           double service_rate_per_cycle,
                           std::size_t latency_window,
                           std::vector<RouterOutage> outages)
    : ControlPlane(spec, std::make_unique<FleetRouter>(
                             FleetRouter::Config{
                                 .replica_policy = policy,
                                 .replicas = replicas,
                                 .service_rate_per_cycle =
                                     service_rate_per_cycle,
                                 .latency_window = latency_window},
                             std::move(outages)))
{
}

ControlPlane::ControlPlane(const ResilienceSpec &spec,
                           std::unique_ptr<FleetRouter> owned)
    : ControlPlane(spec, *owned)
{
    owned_ = std::move(owned);
}

void
ControlPlane::observeHealth(Tick t)
{
    // One probe round per dispatch event; each breaker rate-limits
    // itself to probe_interval_cycles. Every round observes every
    // breaker at the same tick, so they share one rate limit: a round
    // the first breaker would ignore, they all ignore, and it is
    // skipped before any health signal is computed. Health is causal:
    // the outage calendar plus the replica's own window-p99 estimate.
    if (!breakers_.front().probeDue(t))
        return;
    for (std::size_t r = 0; r < replicas_; ++r) {
        bool healthy = router_.alive(r, t);
        if (healthy && spec_.breaker.latency_trip_cycles > 0.0) {
            healthy = router_.estimator(r).windowP99() <=
                      spec_.breaker.latency_trip_cycles;
        }
        breakers_[r].observe(t, healthy);
    }
}

double
ControlPlane::overloadFraction() const
{
    if (stats_.admission.offered == 0)
        return 0.0;
    return static_cast<double>(stats_.overload_candidates) /
           static_cast<double>(stats_.admission.offered);
}

RouterResult
ControlPlane::route(double rate_per_cycle, std::uint64_t seed,
                    Tick max_ticks,
                    const std::vector<RouterSurge> &surges)
{
    RouterResult res;
    res.traces.resize(replicas_);
    res.assigned.assign(replicas_, 0);
    ArrivalStream stream(rate_per_cycle, seed, 0, max_ticks, surges);
    beginRoute(seed, max_ticks);
    for (RouteStep st; step(stream, st);) {
        for (std::size_t i = 0; i < st.count; ++i) {
            res.traces[st.replicas[i]].push_back(st.t);
            ++res.assigned[st.replicas[i]];
        }
    }
    finishRoute(max_ticks);
    res.generated = generated_;
    res.shed = stats_.totalShed();
    res.rerouted = router_.reroutedCount();
    return res;
}

void
ControlPlane::beginRoute(std::uint64_t seed, Tick max_ticks)
{
    router_.beginRoute(max_ticks);
    priority_rng_ = Rng(seed * kPriorityStream + 7);
    jitter_rng_ = Rng(seed * kJitterStream + 11);
    started_ = false;
    have_head_ = false;
    retries_ = {};
    retry_seq_ = 0;
    fresh_popped_ = 0;
    generated_ = 0;
    retry_tokens_ = spec_.retry.max_budget;
    hedge_window_ =
        stats::SlidingWindow(std::max<std::size_t>(spec_.hedge.window, 1));
}

bool
ControlPlane::pullFresh(ArrivalStream &stream)
{
    // The stream draws from its own Rng, so tagging each candidate as
    // it is pulled matches tagging every candidate up front.
    if (!stream.next(head_.t))
        return false;
    const double bg_frac = spec_.admission.background_fraction;
    head_.background = bg_frac > 0.0 && priority_rng_.uniform() < bg_frac;
    ++generated_;
    return true;
}

void
ControlPlane::shedPriority(bool background)
{
    if (background)
        ++stats_.shed_background_total;
    else
        ++stats_.shed_inference_total;
}

bool
ControlPlane::step(ArrivalStream &stream, RouteStep &out)
{
    // Dispatch attempts drain in tick order, so the per-replica traces
    // come out non-decreasing however retries interleave with later
    // arrivals. Fresh candidates come out of the stream in strictly
    // increasing tick order; only backed-off retries wait in a heap.
    // Each round takes the stream's head or the heap's top, whichever
    // is earlier, and the head on a tie: a fresh candidate dispatches
    // before every retry at its tick, and retries keep their push
    // order through their own seq.
    out.count = 0;
    if (!started_) {
        started_ = true;
        have_head_ = pullFresh(stream);
    }
    if (!have_head_ && retries_.empty())
        return false;
    DispatchEvent ev;
    if (have_head_ && (retries_.empty() || head_.t <= retries_.top().t)) {
        ev = head_;
        ++fresh_popped_;
        have_head_ = pullFresh(stream);
    } else {
        ev = retries_.pop();
    }
    const Tick t = ev.t;
    out.t = t;

    router_.drainAll(t);
    if (spec_.breaker.enabled)
        observeHealth(t);

    if (ev.attempt == 0) {
        double mean_backlog = router_.meanBacklog();
        if (mean_backlog > spec_.training_shed_backlog)
            ++stats_.overload_candidates;
        if (!admission_.offer(t, ev.background, mean_backlog)) {
            shedPriority(ev.background);
            return true;
        }
    }

    std::size_t r = router_.pick(t);
    if (r == kNoReplica) {
        // No replica available. Distinguish "breakers vetoed an
        // otherwise-alive fleet" for the accounting, then spend a
        // retry token if the budget and attempt cap allow.
        bool any_alive = false;
        for (std::size_t i = 0; i < replicas_ && !any_alive; ++i)
            any_alive = router_.alive(i, t);
        if (any_alive && spec_.breaker.enabled)
            ++stats_.breaker_denials;

        if (spec_.retry.enabled &&
            ev.attempt + 1 < spec_.retry.max_attempts) {
            if (retry_tokens_ >= 1.0) {
                retry_tokens_ -= 1.0;
                ++stats_.retry_attempts;
                double backoff =
                    static_cast<double>(spec_.retry.base_backoff_cycles) *
                    std::pow(spec_.retry.backoff_multiplier,
                             static_cast<double>(ev.attempt));
                backoff *=
                    1.0 + spec_.retry.jitter_frac * jitter_rng_.uniform();
                Tick delay =
                    std::max<Tick>(1, static_cast<Tick>(backoff));
                retries_.push({t + delay, retry_seq_++, ev.attempt + 1,
                               ev.background});
                // Fresh candidates not yet offered plus pending
                // retries never exceed the candidate count: each round
                // takes one attempt and pushes at most one.
                EQX_ASSERT(retries_.size() <= fresh_popped_,
                           "retry heap holds ", retries_.size(),
                           " retries after ", fresh_popped_,
                           " fresh offers");
                return true;
            }
            ++stats_.retry_budget_exhausted;
        }
        if (ev.attempt > 0)
            ++stats_.retry_shed;
        else
            ++stats_.outage_shed;
        shedPriority(ev.background);
        return true;
    }

    if (ev.attempt > 0)
        ++stats_.retry_recovered;
    out.add(r);
    ++stats_.dispatched;
    if (ev.background)
        ++stats_.dispatched_background;
    retry_tokens_ = std::min(spec_.retry.max_budget,
                             retry_tokens_ + spec_.retry.budget_ratio);

    double est = router_.estimator(r).lastAssignmentEstimateCycles();
    admission_.noteDispatch(est);

    if (spec_.hedge.enabled) {
        // The hedge budget compares against dispatches so far, so
        // sustained overload (every estimate past the window p99)
        // settles at the cap instead of doubling offered load.
        bool budget_ok = static_cast<double>(stats_.hedges_issued) <
                         spec_.hedge.max_hedge_fraction *
                             static_cast<double>(stats_.dispatched);
        if (budget_ok && hedge_window_.size() >= spec_.hedge.min_samples &&
            est > spec_.hedge.latency_factor *
                      hedge_window_.percentile(0.99)) {
            std::size_t alt = router_.pickAlternate(t, r);
            if (alt != kNoReplica) {
                router_.assignTo(alt, t);
                out.add(alt);
                ++stats_.hedges_issued;
                // First-wins against the causal model: the copy
                // predicted faster wins; the loser is accounted
                // cancelled but still occupies its replica (the honest
                // capacity cost of hedging).
                double est_alt =
                    router_.estimator(alt).lastAssignmentEstimateCycles();
                if (est_alt < est)
                    ++stats_.hedge_wins;
            }
        }
        hedge_window_.push(est);
    }
    return true;
}

void
ControlPlane::finishRoute(Tick max_ticks)
{
    router_.finishRoute(max_ticks);
    EQX_ASSERT(router_.shedCount() == stats_.retry_attempts +
                                          stats_.retry_shed +
                                          stats_.outage_shed,
               "a failed pick was neither retried nor shed");
    // Before the first offer all `generated` candidates are pending,
    // and the retry-push assertion keeps the pending count at or
    // below that afterwards.
    stats_.dispatch_heap_high_water = generated_;
    stats_.retry_heap_high_water = retries_.highWater();
    // The pass drained the heap; hand its storage back, since the
    // replicas may still be running.
    retries_ = {};

    for (const auto &b : breakers_) {
        stats_.breaker_opens += b.opens();
        stats_.breaker_reopens += b.reopens();
        stats_.breaker_closes += b.closes();
    }
    stats_.admission = admission_.stats();
}

} // namespace cluster
} // namespace equinox
