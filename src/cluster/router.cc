#include "cluster/router.hh"

#include "common/logging.hh"

namespace equinox
{
namespace cluster
{

std::vector<Tick>
generateCandidateTicks(double rate_per_cycle, std::uint64_t seed,
                       Tick max_ticks,
                       const std::vector<RouterSurge> &surges)
{
    std::vector<Tick> ticks;
    ArrivalStream stream(rate_per_cycle, seed, 0, max_ticks, surges);
    for (Tick t = 0; stream.next(t);)
        ticks.push_back(t);
    return ticks;
}

Router::Router(RoutingPolicy policy, std::size_t replicas,
               double service_rate_per_cycle, std::size_t latency_window,
               std::vector<RouterOutage> outages)
    : policy_(policy), replicas_(replicas), outages_(std::move(outages))
{
    EQX_ASSERT(replicas >= 1, "router needs at least one replica");
    estimators_.reserve(replicas);
    for (std::size_t r = 0; r < replicas; ++r)
        estimators_.emplace_back(service_rate_per_cycle, latency_window);
    for (const auto &o : outages_) {
        EQX_ASSERT(o.replica < replicas,
                   "outage names replica ", o.replica, " of ", replicas);
        EQX_ASSERT(o.from <= o.to, "outage window runs backwards");
    }
}

bool
Router::alive(std::size_t replica, Tick t) const
{
    for (const auto &o : outages_) {
        if (o.replica == replica && t >= o.from && t < o.to)
            return false;
    }
    return true;
}

bool
Router::available(std::size_t replica, Tick t) const
{
    return alive(replica, t) && (!filter_ || filter_(replica, t));
}

bool
Router::anyAvailable(Tick t) const
{
    for (std::size_t r = 0; r < replicas_; ++r) {
        if (available(r, t))
            return true;
    }
    return false;
}

void
Router::drainAll(Tick t)
{
    // Every estimator drains at the one service rate, and they share
    // one last-drain tick: pick() drains them all, and assignTo() drains
    // them all before it assigns. So the drained amount is computed
    // once, and each estimator's result is bitwise its own drainTo(t).
    const ReplicaEstimator &first = estimators_.front();
    EQX_ASSERT(t >= first.lastDrain(), "router time ran backwards");
    if (t == first.lastDrain())
        return; // a zero drain leaves every backlog as it is
    const double drained =
        static_cast<double>(t - first.lastDrain()) * first.serviceRate();
    for (auto &e : estimators_)
        e.drainBy(drained, t);
}

std::size_t
Router::pickRoundRobin(Tick t)
{
    // The rotation pointer advances past dead replicas; the first
    // healthy replica at or after it wins and the pointer moves on.
    for (std::size_t i = 0; i < replicas_; ++i) {
        std::size_t cand = (rr_next_ + i) % replicas_;
        if (available(cand, t)) {
            if (i > 0)
                ++rerouted_;
            rr_next_ = (cand + 1) % replicas_;
            return cand;
        }
    }
    rr_next_ = (rr_next_ + 1) % replicas_;
    return kNoReplica;
}

template <typename Metric>
std::size_t
Router::argmin(Tick t, bool healthy_only, std::size_t exclude,
               Metric metric) const
{
    // Strict < with ascending scan: ties break to the lowest index,
    // which the determinism contract (DESIGN.md section 2.4) requires.
    // Without outages or a filter every replica is available, so the
    // health check is skipped outright.
    const bool check = healthy_only && (!outages_.empty() || filter_);
    std::size_t best = kNoReplica;
    double best_value = 0.0;
    for (std::size_t r = 0; r < replicas_; ++r) {
        if (r == exclude || (check && !available(r, t)))
            continue;
        const double value = metric(estimators_[r]);
        if (best == kNoReplica || value < best_value) {
            best = r;
            best_value = value;
        }
    }
    return best;
}

std::size_t
Router::pickMin(Tick t, bool healthy_only, std::size_t exclude) const
{
    // LatencyAware ranks by observed window p99; every other policy
    // (JSQ picks, round-robin hedge alternates) ranks by backlog.
    if (policy_ == RoutingPolicy::LatencyAware) {
        return argmin(t, healthy_only, exclude,
                      [](const ReplicaEstimator &e) {
                          return e.windowP99();
                      });
    }
    return argmin(t, healthy_only, exclude,
                  [](const ReplicaEstimator &e) { return e.backlog(); });
}

std::size_t
Router::pickAlternate(Tick t, std::size_t exclude) const
{
    return pickMin(t, true, exclude);
}

void
Router::assignTo(std::size_t r, Tick t)
{
    EQX_ASSERT(r < replicas_, "assignTo names replica ", r, " of ",
               replicas_);
    drainAll(t);
    estimators_[r].assign(t);
}

std::size_t
Router::pick(Tick t)
{
    drainAll(t);

    std::size_t choice;
    if (policy_ == RoutingPolicy::RoundRobin) {
        choice = pickRoundRobin(t);
    } else {
        choice = pickMin(t, true);
        // Re-routed: the pick made ignoring health would have landed
        // on a dead or vetoed replica (the round-robin path counts
        // its own skips). Without outages or a filter every replica
        // is available, so the health-blind scan is skipped.
        if (choice != kNoReplica && (!outages_.empty() || filter_) &&
            !available(pickMin(t, false), t))
            ++rerouted_;
    }
    if (choice == kNoReplica) {
        ++shed_;
        return kNoReplica;
    }
    estimators_[choice].assign(t);
    return choice;
}

} // namespace cluster
} // namespace equinox
