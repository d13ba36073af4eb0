/**
 * @file
 * Latency sample tracking with exact percentile queries.
 *
 * The evaluation reports 99th-percentile latencies over bounded experiment
 * windows (at most a few hundred thousand requests), so we keep every sample
 * and sort lazily; this is both exact and fast enough. A log-bucketed
 * histogram view is provided for summary printing.
 */

#ifndef EQUINOX_STATS_HISTOGRAM_HH
#define EQUINOX_STATS_HISTOGRAM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace equinox
{
namespace stats
{

/**
 * Exact p-quantile of an ascending-sorted sample buffer via linear
 * interpolation between order statistics. This is THE percentile kernel:
 * every sliding-window or tracker percentile in the repo must route
 * through it rather than re-deriving the interpolation, because the
 * exact-rank guard below is what keeps +inf samples from surfacing as
 * NaN (0 * inf) — a bug class we have already fixed once.
 *
 * @param sorted ascending-sorted samples; must be non-empty and NaN-free
 * @param p      quantile in [0, 1]; e.g. 0.99 for the 99th percentile
 */
double exactPercentileSorted(const std::vector<double> &sorted, double p);

/**
 * The rank arithmetic of exactPercentileSorted, shared with every
 * percentile that finds its order statistics another way: the p-quantile
 * of @p n samples is order statistic `lo` alone when `exact`, else
 * interpolate(order statistic lo, order statistic lo + 1).
 */
struct PercentileRank
{
    std::size_t lo = 0;
    double frac = 0.0;
    bool exact = true;

    /** The quantile between the two order statistics. */
    double
    interpolate(double lo_value, double hi_value) const
    {
        return lo_value * (1.0 - frac) + hi_value * frac;
    }
};

/** Rank of the p-quantile of @p n >= 1 samples, p in [0, 1]. */
PercentileRank percentileRank(std::size_t n, double p);

/** Exact sample set with percentile queries. */
class LatencyTracker
{
  public:
    /**
     * Record one latency sample (any consistent unit). NaN samples are
     * rejected (counted, not stored): one corrupted measurement must
     * not poison every percentile, and sorting NaNs is undefined.
     */
    void record(double sample);

    /** Number of recorded samples. */
    std::size_t count() const { return samples.size(); }

    /** NaN samples rejected by record(). */
    std::uint64_t nanRejected() const { return nan_rejected; }

    /** Arithmetic mean; 0 when empty. */
    double mean() const;

    /** Smallest / largest sample; 0 when empty. */
    double min() const;
    double max() const;

    /**
     * Exact p-quantile via linear interpolation between order statistics,
     * found by selection (linear time; it reorders the sample buffer).
     * @param p in [0, 1]; e.g. 0.99 for the 99th percentile.
     */
    double percentile(double p) const;

    /**
     * Fold another tracker's samples into this one. Equivalent to
     * having record()ed every one of @p other's samples here: the
     * merged percentiles are exact order statistics of the concatenated
     * sample sets, never an approximation from the parts' quantiles.
     * Sums are added directly rather than recombining means, so an
     * empty contributor cannot poison the merged mean the way a
     * zero-weight neighbour poisoned exact-rank percentiles (0 * inf).
     */
    void merge(const LatencyTracker &other);

    /** The raw sample buffer (unspecified order; tests and merges). */
    const std::vector<double> &rawSamples() const { return samples; }

    /** Drop all samples. */
    void reset();

  private:
    mutable std::vector<double> samples;
    double sum = 0.0;
    std::uint64_t nan_rejected = 0;
};

/** Fixed-width log-bucket histogram for summary output. */
class LogHistogram
{
  public:
    /**
     * @param lo lower bound of the first bucket (must be > 0)
     * @param hi upper bound of the last bucket
     * @param buckets_per_decade resolution
     */
    LogHistogram(double lo, double hi, unsigned buckets_per_decade = 8);

    void record(double sample);

    std::size_t bucketCount() const { return counts.size(); }
    std::uint64_t bucketValue(std::size_t i) const { return counts.at(i); }
    /** Geometric midpoint of bucket i. */
    double bucketMid(std::size_t i) const;
    std::uint64_t underflows() const { return under; }
    std::uint64_t overflows() const { return over; }
    /** NaN samples rejected by record(). */
    std::uint64_t nanRejected() const { return nan_rejected; }

  private:
    double lo_;
    double log_lo;
    double bucket_width; // in log10 space
    std::vector<std::uint64_t> counts;
    std::uint64_t under = 0;
    std::uint64_t over = 0;
    std::uint64_t nan_rejected = 0;
};

} // namespace stats
} // namespace equinox

#endif // EQUINOX_STATS_HISTOGRAM_HH
