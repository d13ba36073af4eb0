#include "cluster/arrival_feed.hh"

#include <algorithm>

namespace equinox
{
namespace cluster
{

ArrivalFeed::ArrivalFeed(FleetRouter &router, ControlPlane *cp,
                         double rate_per_cycle, std::uint64_t seed,
                         Tick max_ticks,
                         const std::vector<ArrivalSurge> &surges)
    : router_(router), cp_(cp),
      stream_(rate_per_cycle, seed, 0, max_ticks, surges),
      max_ticks_(max_ticks)
{
    const std::size_t n = router_.config().replicas;
    lanes_.reserve(n);
    for (std::size_t r = 0; r < n; ++r)
        lanes_.emplace_back(*this, r);
    assigned_.assign(n, 0);
    if (cp_)
        cp_->beginRoute(seed, max_ticks_);
    else
        router_.beginRoute(max_ticks_);
}

bool
ArrivalFeed::advance()
{
    if (done_)
        return false;
    RouteStep st;
    if (!(cp_ ? cp_->step(stream_, st) : router_.step(stream_, st))) {
        if (cp_)
            cp_->finishRoute(max_ticks_);
        else
            router_.finishRoute(max_ticks_);
        done_ = true;
        return false;
    }
    for (std::size_t i = 0; i < st.count; ++i) {
        const std::size_t r = st.replicas[i];
        ++assigned_[r];
        Lane &lane = lanes_[r];
        if (!lane.released) {
            lane.inbox.push_back(st.t);
            high_water_ = std::max(high_water_, ++buffered_);
        }
    }
    return true;
}

bool
ArrivalFeed::refill(Lane &lane)
{
    std::lock_guard<std::mutex> lock(mu_);
    // The reader comes back only once it has read all of `local`.
    buffered_ -= lane.local.size();
    while (lane.inbox.empty() && advance()) {
    }
    lane.local.clear();
    lane.local.swap(lane.inbox);
    lane.next_local = 0;
    return !lane.local.empty();
}

bool
ArrivalFeed::next(std::size_t replica, Tick &t)
{
    Lane &lane = lanes_[replica];
    if (lane.next_local == lane.local.size() && !refill(lane))
        return false;
    t = lane.local[lane.next_local++];
    return true;
}

bool
ArrivalFeed::hasNext(std::size_t replica)
{
    Lane &lane = lanes_[replica];
    return lane.next_local < lane.local.size() || refill(lane);
}

sim::ArrivalSource &
ArrivalFeed::source(std::size_t replica)
{
    return lanes_[replica];
}

void
ArrivalFeed::release(std::size_t replica)
{
    Lane &lane = lanes_[replica];
    std::lock_guard<std::mutex> lock(mu_);
    buffered_ -= lane.local.size() + lane.inbox.size();
    lane.released = true;
    std::vector<Tick>().swap(lane.local);
    lane.next_local = 0;
    std::vector<Tick>().swap(lane.inbox);
}

void
ArrivalFeed::routeToEnd()
{
    std::lock_guard<std::mutex> lock(mu_);
    while (advance()) {
    }
}

std::uint64_t
ArrivalFeed::generated() const
{
    return cp_ ? cp_->generated() : router_.generated();
}

std::uint64_t
ArrivalFeed::shed() const
{
    return cp_ ? cp_->stats().totalShed() : router_.shedCount();
}

std::uint64_t
ArrivalFeed::rerouted() const
{
    return router_.reroutedCount();
}

} // namespace cluster
} // namespace equinox
