#include "common/random.hh"

#include <algorithm>

#include "common/logging.hh"

namespace equinox
{

ArrivalStream::ArrivalStream(double rate_per_cycle, std::uint64_t seed,
                             std::uint64_t stream, Tick max_ticks,
                             const std::vector<ArrivalSurge> &surges)
    : max_ticks_(max_ticks), surges_(surges),
      // The seed recipe every golden digest and recorded trace rests
      // on; changing it re-records them all.
      rng_(seed * 7919 + stream + 1), done_(rate_per_cycle <= 0.0)
{
    for (const auto &s : surges_) {
        EQX_ASSERT(s.factor >= 1.0, "surge factor must be >= 1");
        peak_factor_ = std::max(peak_factor_, s.factor);
    }
    draw_rate_ = rate_per_cycle * peak_factor_;
}

double
ArrivalStream::factorAt(Tick t) const
{
    double factor = 1.0;
    for (const auto &s : surges_) {
        if (t >= s.from && t < s.to)
            factor = std::max(factor, s.factor);
    }
    return factor;
}

bool
ArrivalStream::next(Tick &t)
{
    if (done_)
        return false;
    while (true) {
        double wait = rng_.exponential(draw_rate_);
        t_ += static_cast<Tick>(wait) + 1;
        if (t_ > max_ticks_) {
            // Include the first candidate beyond the horizon, always
            // accepted: the replica event loop dispatches one event
            // past max_ticks, so a router's trace must cover it for
            // byte-identity with a stochastic run.
            done_ = true;
            t = t_;
            return true;
        }
        // Lewis-Shedler thinning against the instantaneous rate; no
        // acceptance draw without surges.
        if (surges_.empty() ||
            rng_.uniform() * peak_factor_ < factorAt(t_)) {
            t = t_;
            return true;
        }
    }
}

} // namespace equinox
