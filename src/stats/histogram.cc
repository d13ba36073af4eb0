#include "stats/histogram.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace equinox
{
namespace stats
{

void
LatencyTracker::record(double sample)
{
    if (std::isnan(sample)) {
        // One poisoned measurement must not corrupt every percentile:
        // NaN breaks the strict weak ordering std::sort requires and
        // propagates through the running sum.
        ++nan_rejected;
        return;
    }
    samples.push_back(sample);
    sum += sample;
}

double
LatencyTracker::mean() const
{
    if (samples.empty())
        return 0.0;
    return sum / static_cast<double>(samples.size());
}

double
LatencyTracker::min() const
{
    return samples.empty()
               ? 0.0
               : *std::min_element(samples.begin(), samples.end());
}

double
LatencyTracker::max() const
{
    return samples.empty()
               ? 0.0
               : *std::max_element(samples.begin(), samples.end());
}

PercentileRank
percentileRank(std::size_t n, double p)
{
    EQX_ASSERT(p >= 0.0 && p <= 1.0, "quantile out of range: ", p);
    EQX_ASSERT(n > 0, "percentile of an empty sample set");
    PercentileRank r;
    if (n == 1)
        return r;
    double rank = p * static_cast<double>(n - 1);
    r.lo = static_cast<std::size_t>(rank);
    r.frac = rank - static_cast<double>(r.lo);
    // Exact-rank queries return the order statistic itself: mixing in
    // the neighbour with weight 0 would turn an infinite neighbour into
    // 0 * inf = NaN.
    r.exact = r.frac == 0.0 || r.lo + 1 >= n;
    return r;
}

double
exactPercentileSorted(const std::vector<double> &sorted, double p)
{
    const PercentileRank r = percentileRank(sorted.size(), p);
    if (r.exact)
        return sorted[r.lo];
    return r.interpolate(sorted[r.lo], sorted[r.lo + 1]);
}

double
LatencyTracker::percentile(double p) const
{
    if (samples.empty()) {
        EQX_ASSERT(p >= 0.0 && p <= 1.0, "quantile out of range: ", p);
        return 0.0;
    }
    // Order statistic lo by selection; order statistic lo + 1 is then
    // the least sample of the part above it.
    const PercentileRank r = percentileRank(samples.size(), p);
    const auto lo = samples.begin() + static_cast<std::ptrdiff_t>(r.lo);
    std::nth_element(samples.begin(), lo, samples.end());
    if (r.exact)
        return *lo;
    return r.interpolate(*lo, *std::min_element(lo + 1, samples.end()));
}

void
LatencyTracker::merge(const LatencyTracker &other)
{
    // Self-merge would otherwise read the vector being appended to
    // (iterators invalidate on reallocation): duplicate via a copy.
    if (&other == this) {
        std::vector<double> copy = samples;
        samples.insert(samples.end(), copy.begin(), copy.end());
        sum += sum;
        nan_rejected += nan_rejected;
        return;
    }
    samples.insert(samples.end(), other.samples.begin(),
                   other.samples.end());
    sum += other.sum;
    nan_rejected += other.nan_rejected;
}

void
LatencyTracker::reset()
{
    samples.clear();
    sum = 0.0;
    nan_rejected = 0;
}

LogHistogram::LogHistogram(double lo, double hi, unsigned buckets_per_decade)
    : lo_(lo)
{
    EQX_ASSERT(lo > 0.0 && hi > lo, "bad histogram bounds");
    EQX_ASSERT(buckets_per_decade > 0, "bad histogram resolution");
    log_lo = std::log10(lo);
    bucket_width = 1.0 / static_cast<double>(buckets_per_decade);
    double decades = std::log10(hi) - log_lo;
    auto n = static_cast<std::size_t>(
        std::ceil(decades * buckets_per_decade));
    counts.assign(std::max<std::size_t>(n, 1), 0);
}

void
LogHistogram::record(double sample)
{
    if (std::isnan(sample)) {
        ++nan_rejected;
        return;
    }
    if (sample < lo_) {
        ++under;
        return;
    }
    double pos = (std::log10(sample) - log_lo) / bucket_width;
    // Range-check in floating point BEFORE converting: casting a value
    // beyond the bucket range (or +inf) to size_t is undefined
    // behaviour, so out-of-range samples clamp to the overflow counter
    // without ever being converted.
    if (!(pos < static_cast<double>(counts.size()))) {
        ++over;
        return;
    }
    ++counts[static_cast<std::size_t>(pos)];
}

double
LogHistogram::bucketMid(std::size_t i) const
{
    EQX_ASSERT(i < counts.size(), "bucket index out of range");
    double lo_edge = log_lo + bucket_width * static_cast<double>(i);
    return std::pow(10.0, lo_edge + bucket_width * 0.5);
}

} // namespace stats
} // namespace equinox
