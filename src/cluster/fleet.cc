#include "cluster/fleet.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace equinox
{
namespace cluster
{

namespace
{

constexpr Tick kNeverTick = std::numeric_limits<Tick>::max();
constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);

std::size_t
clampCount(std::size_t v, std::size_t lo, std::size_t hi)
{
    return std::min(std::max(v, lo), hi);
}

} // namespace

std::vector<std::string>
AutoscalerSpec::validate() const
{
    std::vector<std::string> errors;
    if (!enabled)
        return errors;
    if (min_replicas < 1)
        errors.push_back("autoscaler min_replicas must be >= 1");
    if (max_replicas != 0 && max_replicas < min_replicas)
        errors.push_back("autoscaler max_replicas must be 0 or >= "
                         "min_replicas");
    if (initial_replicas != 0 &&
        (initial_replicas < min_replicas ||
         (max_replicas != 0 && initial_replicas > max_replicas)))
        errors.push_back("autoscaler initial_replicas must be 0 or in "
                         "[min_replicas, max_replicas]");
    if (!(target_p99_s > 0.0))
        errors.push_back("autoscaler needs target_p99_s > 0");
    if (!(low_watermark > 0.0 && low_watermark < 1.0))
        errors.push_back("autoscaler low_watermark must be in (0, 1)");
    if (!(target_utilization > 0.0 && target_utilization <= 1.0))
        errors.push_back(
            "autoscaler target_utilization must be in (0, 1]");
    if (!(decision_interval_s > 0.0))
        errors.push_back("autoscaler needs decision_interval_s > 0");
    if (cooldown_s < 0.0)
        errors.push_back("autoscaler cooldown_s must be >= 0");
    if (warmup_s < 0.0)
        errors.push_back("autoscaler warmup_s must be >= 0");
    if (estimate_window < 1)
        errors.push_back("autoscaler estimate_window must be >= 1");
    if (min_samples < 1)
        errors.push_back("autoscaler min_samples must be >= 1");
    return errors;
}

std::vector<std::string>
FleetSpec::validate() const
{
    std::vector<std::string> errors;
    for (auto &e : autoscaler.validate())
        errors.push_back(std::move(e));
    for (auto &e : traffic.validate())
        errors.push_back("traffic: " + std::move(e));
    return errors;
}

FleetRouter::FleetRouter(const Config &cfg,
                         std::vector<RouterOutage> outages)
    : cfg_(cfg), shards_(cfg.shards),
      estimates_(cfg.autoscale ? cfg.estimate_window : 1)
{
    const std::size_t n = cfg_.replicas;
    EQX_ASSERT(n >= 1, "fleet needs at least one replica");
    EQX_ASSERT(shards_ >= 1 && shards_ <= n, "shard count ", shards_,
               " must be in [1, ", n, "]");
    EQX_ASSERT(cfg_.service_rate_per_cycle > 0.0,
               "fleet needs a positive service rate");

    // Contiguous balanced partition: the first n % S shards take one
    // extra replica, so sizes differ by at most 1 and shardOf() is a
    // closed-form computation.
    base_.resize(shards_ + 1);
    std::size_t size = n / shards_;
    std::size_t rem = n % shards_;
    base_[0] = 0;
    for (std::size_t s = 0; s < shards_; ++s)
        base_[s + 1] = base_[s] + size + (s < rem ? 1 : 0);

    // Split the global outage plan into per-shard local plans.
    std::vector<std::vector<RouterOutage>> local(shards_);
    shard_has_outage_.assign(shards_, 0);
    for (const auto &o : outages) {
        EQX_ASSERT(o.replica < n, "outage names replica ", o.replica,
                   " of ", n);
        std::size_t s = shardOf(o.replica);
        local[s].push_back({o.replica - base_[s], o.from, o.to});
        shard_has_outage_[s] = 1;
    }

    inner_.reserve(shards_);
    shard_est_.reserve(shards_);
    for (std::size_t s = 0; s < shards_; ++s) {
        inner_.emplace_back(cfg_.replica_policy, shardSize(s),
                            cfg_.service_rate_per_cycle,
                            cfg_.latency_window, std::move(local[s]));
        // The shard estimator models the shard as one fat server with
        // the shard's aggregate capacity -- the same M/D/1-style fluid
        // queue the replica estimators run, one level up.
        shard_est_.emplace_back(cfg_.service_rate_per_cycle *
                                    static_cast<double>(shardSize(s)),
                                cfg_.latency_window);
    }

    if (cfg_.autoscale) {
        EQX_ASSERT(cfg_.decision_interval >= 1,
                   "autoscaler needs a nonzero decision interval");
        max_active_ = cfg_.max_active == 0
                          ? n
                          : std::min(cfg_.max_active, n);
        std::size_t min_active = clampCount(cfg_.min_active, 1,
                                            max_active_);
        std::size_t initial = cfg_.initial_active == 0
                                  ? min_active
                                  : clampCount(cfg_.initial_active,
                                               min_active, max_active_);
        routable_from_.assign(n, kNeverTick);
        ever_active_.assign(n, 0);
        for (std::size_t r = 0; r < initial; ++r) {
            routable_from_[r] = 0;
            ever_active_[r] = 1;
        }
        provisioned_ = initial;
        next_decision_ = cfg_.decision_interval;
        horizon_ = kNeverTick;
        stats_.min_active = initial;
        stats_.max_active = initial;
        stats_.final_active = initial;
        installFilters();
    }
}

void
FleetRouter::installFilters()
{
    // The autoscaler's routability and the health veto ride the inner
    // routers' one filter hook: inner picks skip deactivated,
    // still-warming and vetoed replicas exactly like dead ones.
    for (std::size_t s = 0; s < shards_; ++s) {
        std::size_t b = base_[s];
        inner_[s].setAvailabilityFilter(
            [this, b](std::size_t local_r, Tick t) {
                return admits(b + local_r, t);
            });
    }
}

bool
FleetRouter::admits(std::size_t replica, Tick t) const
{
    return (!cfg_.autoscale || routable(replica, t)) &&
           (!veto_ || veto_(replica, t));
}

void
FleetRouter::setHealthVeto(std::function<bool(std::size_t, Tick)> veto)
{
    veto_ = std::move(veto);
    installFilters();
}

std::size_t
FleetRouter::shardOf(std::size_t replica) const
{
    EQX_ASSERT(replica < cfg_.replicas, "replica ", replica, " of ",
               cfg_.replicas);
    if (shards_ == 1)
        return 0;
    std::size_t n = cfg_.replicas;
    std::size_t size = n / shards_;
    std::size_t rem = n % shards_;
    std::size_t fat = rem * (size + 1); //!< replicas in the fat shards
    if (replica < fat)
        return replica / (size + 1);
    return rem + (replica - fat) / size;
}

bool
FleetRouter::routable(std::size_t replica, Tick t) const
{
    return routable_from_[replica] <= t;
}

bool
FleetRouter::everActive(std::size_t replica) const
{
    if (!cfg_.autoscale)
        return true;
    return ever_active_[replica] != 0;
}

bool
FleetRouter::shardAvailable(std::size_t s, Tick t) const
{
    // Provisioning is a prefix of the global index space and
    // routable_from_ is non-decreasing in the replica index
    // (activations always append to the provisioned prefix with later
    // timestamps), so the shard's FIRST replica decides whether ANY
    // member is routable -- an O(1) gate in front of the O(shard)
    // outage scan, which only runs for shards that have outages at
    // all.
    if (cfg_.autoscale && !routable(base_[s], t))
        return false;
    // A health veto can darken a shard that has no outage, so only a
    // shard free of both skips the member scan.
    if (!shard_has_outage_[s] && !veto_)
        return true;
    return inner_[s].anyAvailable(t);
}

double
FleetRouter::shardMetric(std::size_t s) const
{
    return cfg_.shard_policy == RoutingPolicy::LatencyAware
               ? shard_est_[s].windowP99()
               : shard_est_[s].backlog();
}

std::size_t
FleetRouter::pickShard(Tick t)
{
    if (cfg_.shard_policy == RoutingPolicy::RoundRobin) {
        for (std::size_t i = 0; i < shards_; ++i) {
            std::size_t cand = (shard_rr_ + i) % shards_;
            if (shardAvailable(cand, t)) {
                if (i > 0)
                    ++shard_rerouted_;
                shard_rr_ = (cand + 1) % shards_;
                return cand;
            }
        }
        // No shard has an available replica. The candidate still goes
        // to the cursor's shard so THAT inner router sheds it and
        // advances its own rotation -- with one shard this is exactly
        // the flat router's shed path, which the byte-identity lemma
        // requires.
        std::size_t cand = shard_rr_;
        shard_rr_ = (shard_rr_ + 1) % shards_;
        return cand;
    }

    // Min-metric shard policies: strict < with ascending scan, ties to
    // the lowest index (the same determinism contract as the flat
    // pickMin).
    std::size_t best_avail = kNoShard;
    std::size_t best_all = kNoShard;
    for (std::size_t s = 0; s < shards_; ++s) {
        if (best_all == kNoShard ||
            shardMetric(s) < shardMetric(best_all))
            best_all = s;
        if (!shardAvailable(s, t))
            continue;
        if (best_avail == kNoShard ||
            shardMetric(s) < shardMetric(best_avail))
            best_avail = s;
    }
    if (best_avail == kNoShard)
        return best_all; // inner pick sheds
    if (!shardAvailable(best_all, t))
        ++shard_rerouted_;
    return best_avail;
}

std::size_t
FleetRouter::pick(Tick t)
{
    if (cfg_.autoscale)
        onCandidate(t);
    // One shard: pickShard could only return 0 and never re-routes, so
    // the shard tier (and its estimator) is skipped outright.
    std::size_t s = 0;
    if (shards_ > 1) {
        for (auto &e : shard_est_)
            e.drainTo(t);
        s = pickShard(t);
    }
    std::size_t local = inner_[s].pick(t);
    if (local == kNoReplica)
        return kNoReplica; // the inner router counted the shed
    if (shards_ > 1)
        shard_est_[s].assign(t);

    if (cfg_.autoscale) {
        // Feedback signal: the model latency the just-assigned request
        // is predicted to see, from the chosen replica's estimator.
        estimates_.push(inner_[s]
                            .estimators()[local]
                            .lastAssignmentEstimateCycles());
    }
    return base_[s] + local;
}

void
FleetRouter::onCandidate(Tick t)
{
    // Close every decision boundary the stream has passed, then count
    // this candidate into the now-current interval. Candidates beyond
    // the horizon (the one-past-the-end candidate the event loop
    // needs) close boundaries but are not counted.
    while (next_decision_ <= horizon_ && next_decision_ <= t) {
        decide(next_decision_);
        next_decision_ += cfg_.decision_interval;
    }
    if (t <= horizon_)
        ++interval_candidates_;
}

void
FleetRouter::decide(Tick boundary)
{
    ++stats_.decisions;
    double len = static_cast<double>(cfg_.decision_interval);
    double rate = static_cast<double>(interval_candidates_) / len;
    interval_candidates_ = 0;

    // Feed-forward capacity plan: replicas needed to serve the
    // interval's observed arrival rate at the target utilization.
    double mu = cfg_.service_rate_per_cycle;
    auto ff_raw = static_cast<std::size_t>(
        std::ceil(rate / (mu * cfg_.target_utilization)));
    std::size_t needed = clampCount(ff_raw, cfg_.min_active,
                                    max_active_);

    // Account the closed interval (provisioned_ is constant across it:
    // it only changes at boundaries).
    double active = static_cast<double>(provisioned_);
    stats_.active_replica_ticks += active * len;
    stats_.needed_replica_ticks += static_cast<double>(needed) * len;
    if (provisioned_ > needed)
        stats_.over_provisioned_ticks +=
            static_cast<double>(provisioned_ - needed) * len;

    // Control: proportional feedback on the estimate-stream p99 when
    // enough samples exist, feed-forward tracking before that. The
    // dead band between low_watermark * target and target holds the
    // current size (hysteresis); the cooldown below rate-limits
    // actions in both directions.
    std::size_t desired = provisioned_;
    if (estimates_.size() >= cfg_.min_samples) {
        double p99 = estimates_.percentile(0.99);
        if (p99 > cfg_.target_p99_cycles) {
            // Overload: proportional jump, never below the
            // feed-forward plan. The ratio is capped so a transient
            // backlog estimate cannot demand a absurd fleet (the
            // clamp to max_active_ would hide the cap anyway).
            double ratio =
                std::min(p99 / cfg_.target_p99_cycles, 64.0);
            auto fb = static_cast<std::size_t>(std::ceil(
                static_cast<double>(provisioned_) * ratio));
            desired = std::max(needed, fb);
        } else if (p99 <
                   cfg_.low_watermark * cfg_.target_p99_cycles) {
            desired = needed;
        }
    } else {
        desired = std::max(provisioned_, needed);
    }
    desired = clampCount(desired, cfg_.min_active, max_active_);

    if (desired != provisioned_ &&
        (!acted_ || boundary >= last_action_ + cfg_.cooldown))
        setProvisioned(boundary, desired);
}

void
FleetRouter::setProvisioned(Tick boundary, std::size_t desired)
{
    if (desired > provisioned_) {
        // Activate the lowest inactive indices; they become routable
        // only after the warm-up lag. Appending to the provisioned
        // prefix with the latest timestamp keeps routable_from_
        // non-decreasing in the index, which shardAvailable's O(1)
        // gate depends on.
        for (std::size_t r = provisioned_; r < desired; ++r) {
            routable_from_[r] = boundary + cfg_.warmup;
            ever_active_[r] = 1;
        }
        ++stats_.scale_ups;
    } else {
        for (std::size_t r = desired; r < provisioned_; ++r)
            routable_from_[r] = kNeverTick;
        ++stats_.scale_downs;
    }
    provisioned_ = desired;
    acted_ = true;
    last_action_ = boundary;
    stats_.min_active = std::min(stats_.min_active, provisioned_);
    stats_.max_active = std::max(stats_.max_active, provisioned_);
    stats_.transitions.emplace_back(boundary, provisioned_);
}

void
FleetRouter::finishRoute(Tick max_ticks)
{
    if (!cfg_.autoscale)
        return;
    horizon_ = max_ticks;
    while (next_decision_ <= max_ticks) {
        decide(next_decision_);
        next_decision_ += cfg_.decision_interval;
    }
    // Account the partial tail interval [last boundary, horizon).
    Tick prev = next_decision_ - cfg_.decision_interval;
    if (max_ticks > prev) {
        double tail = static_cast<double>(max_ticks - prev);
        double rate =
            static_cast<double>(interval_candidates_) / tail;
        auto ff_raw = static_cast<std::size_t>(std::ceil(
            rate /
            (cfg_.service_rate_per_cycle * cfg_.target_utilization)));
        std::size_t needed = clampCount(ff_raw, cfg_.min_active,
                                        max_active_);
        stats_.active_replica_ticks +=
            static_cast<double>(provisioned_) * tail;
        stats_.needed_replica_ticks +=
            static_cast<double>(needed) * tail;
        if (provisioned_ > needed)
            stats_.over_provisioned_ticks +=
                static_cast<double>(provisioned_ - needed) * tail;
        interval_candidates_ = 0;
    }
    stats_.final_active = provisioned_;
    stats_.over_provision_frac =
        stats_.active_replica_ticks > 0.0
            ? stats_.over_provisioned_ticks /
                  stats_.active_replica_ticks
            : 0.0;
}

void
FleetRouter::drainAll(Tick t)
{
    for (auto &r : inner_)
        r.drainAll(t);
}

double
FleetRouter::meanBacklog() const
{
    // One accumulator over the shards in order is one pass over the
    // global index space: the flat Router's sum, bit for bit.
    double sum = 0.0;
    for (const auto &r : inner_) {
        for (const auto &e : r.estimators())
            sum += e.backlog();
    }
    return sum / static_cast<double>(cfg_.replicas);
}

bool
FleetRouter::alive(std::size_t replica, Tick t) const
{
    std::size_t s = shardOf(replica);
    return inner_[s].alive(replica - base_[s], t);
}

const ReplicaEstimator &
FleetRouter::estimator(std::size_t replica) const
{
    std::size_t s = shardOf(replica);
    return inner_[s].estimators()[replica - base_[s]];
}

std::size_t
FleetRouter::pickAlternate(Tick t, std::size_t exclude) const
{
    std::size_t s = shardOf(exclude);
    std::size_t local = inner_[s].pickAlternate(t, exclude - base_[s]);
    return local == kNoReplica ? kNoReplica : base_[s] + local;
}

void
FleetRouter::assignTo(std::size_t replica, Tick t)
{
    std::size_t s = shardOf(replica);
    inner_[s].assignTo(replica - base_[s], t);
    // The duplicate loads its shard like any assignment (the shard
    // estimator is unused with one shard).
    if (shards_ > 1)
        shard_est_[s].assign(t);
}

std::uint64_t
FleetRouter::shedCount() const
{
    std::uint64_t shed = 0;
    for (const auto &r : inner_)
        shed += r.shedCount();
    return shed;
}

std::uint64_t
FleetRouter::reroutedCount() const
{
    std::uint64_t rerouted = shard_rerouted_;
    for (const auto &r : inner_)
        rerouted += r.reroutedCount();
    return rerouted;
}

bool
FleetRouter::step(ArrivalStream &stream, RouteStep &out)
{
    out.count = 0;
    if (!stream.next(out.t))
        return false;
    ++generated_;
    std::size_t g = pick(out.t);
    if (g != kNoReplica)
        out.add(g);
    return true;
}

RouterResult
FleetRouter::route(double rate_per_cycle, std::uint64_t seed,
                   Tick max_ticks, const std::vector<RouterSurge> &surges)
{
    beginRoute(max_ticks);
    RouterResult res;
    res.traces.resize(cfg_.replicas);
    res.assigned.assign(cfg_.replicas, 0);

    ArrivalStream stream(rate_per_cycle, seed, 0, max_ticks, surges);
    for (RouteStep st; step(stream, st);) {
        for (std::size_t i = 0; i < st.count; ++i) {
            res.traces[st.replicas[i]].push_back(st.t);
            ++res.assigned[st.replicas[i]];
        }
    }
    finishRoute(max_ticks);
    res.generated = generated_;
    res.shed = shedCount();
    res.rerouted = reroutedCount();
    return res;
}

} // namespace cluster
} // namespace equinox
