/**
 * @file
 * Unit tests for src/stats: percentile tracking, sliding windows,
 * histograms, cycle breakdowns and table formatting, plus the cluster
 * candidate stream whose ticks feed the router's windows.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "common/random.hh"
#include "stats/cycle_breakdown.hh"
#include "stats/histogram.hh"
#include "stats/table.hh"

namespace equinox
{
namespace stats
{
namespace
{

TEST(LatencyTracker, EmptyIsZero)
{
    LatencyTracker t;
    EXPECT_EQ(t.count(), 0u);
    EXPECT_DOUBLE_EQ(t.mean(), 0.0);
    EXPECT_DOUBLE_EQ(t.percentile(0.99), 0.0);
}

TEST(LatencyTracker, SingleSample)
{
    LatencyTracker t;
    t.record(7.0);
    EXPECT_DOUBLE_EQ(t.mean(), 7.0);
    EXPECT_DOUBLE_EQ(t.percentile(0.0), 7.0);
    EXPECT_DOUBLE_EQ(t.percentile(1.0), 7.0);
    EXPECT_DOUBLE_EQ(t.min(), 7.0);
    EXPECT_DOUBLE_EQ(t.max(), 7.0);
}

TEST(LatencyTracker, ExactPercentiles)
{
    LatencyTracker t;
    // 1..100 shuffled: p-quantiles are exactly computable.
    Rng rng(3);
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.uniformInt(0, i - 1)]);
    for (double x : v)
        t.record(x);

    EXPECT_DOUBLE_EQ(t.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(t.percentile(1.0), 100.0);
    // median of 1..100 with linear interpolation: 50.5
    EXPECT_DOUBLE_EQ(t.percentile(0.5), 50.5);
    // p99 of 1..100: rank 98.01 -> 99.01
    EXPECT_NEAR(t.percentile(0.99), 99.01, 1e-9);
    EXPECT_DOUBLE_EQ(t.mean(), 50.5);
}

TEST(LatencyTracker, PercentileMonotoneInP)
{
    LatencyTracker t;
    Rng rng(11);
    for (int i = 0; i < 1000; ++i)
        t.record(rng.exponential(1.0));
    double prev = -1.0;
    for (double p = 0.0; p <= 1.0; p += 0.05) {
        double q = t.percentile(p);
        EXPECT_GE(q, prev);
        prev = q;
    }
}

TEST(LatencyTracker, EmptyMinMaxAndBoundaryQuantilesAreZero)
{
    LatencyTracker t;
    EXPECT_DOUBLE_EQ(t.min(), 0.0);
    EXPECT_DOUBLE_EQ(t.max(), 0.0);
    EXPECT_DOUBLE_EQ(t.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(t.percentile(1.0), 0.0);
}

TEST(LatencyTracker, RejectsNaNSamples)
{
    LatencyTracker t;
    t.record(1.0);
    t.record(std::nan(""));
    t.record(3.0);
    // The poisoned sample is counted, not stored: every statistic stays
    // finite and the strict weak ordering std::sort needs survives.
    EXPECT_EQ(t.count(), 2u);
    EXPECT_EQ(t.nanRejected(), 1u);
    EXPECT_DOUBLE_EQ(t.mean(), 2.0);
    EXPECT_DOUBLE_EQ(t.percentile(0.5), 2.0);
    EXPECT_DOUBLE_EQ(t.max(), 3.0);
    t.reset();
    EXPECT_EQ(t.nanRejected(), 0u);
    EXPECT_EQ(t.count(), 0u);
}

TEST(LatencyTracker, InfiniteSamplesAreOrderedNormally)
{
    LatencyTracker t;
    t.record(1.0);
    t.record(std::numeric_limits<double>::infinity());
    EXPECT_EQ(t.count(), 2u);
    EXPECT_TRUE(std::isinf(t.max()));
    EXPECT_DOUBLE_EQ(t.percentile(0.0), 1.0);
}

TEST(LatencyTrackerDeath, OutOfRangeQuantileIsFatal)
{
    LatencyTracker t;
    t.record(1.0);
    EXPECT_DEATH(t.percentile(1.5), "quantile out of range");
    EXPECT_DEATH(t.percentile(-0.1), "quantile out of range");
    // A NaN p fails the same range check instead of indexing garbage.
    EXPECT_DEATH(t.percentile(std::nan("")), "quantile out of range");
}

TEST(LatencyTracker, RecordAfterQueryStaysCorrect)
{
    LatencyTracker t;
    t.record(10.0);
    EXPECT_DOUBLE_EQ(t.percentile(0.5), 10.0);
    t.record(20.0);
    t.record(0.0);
    EXPECT_DOUBLE_EQ(t.percentile(0.5), 10.0);
    EXPECT_DOUBLE_EQ(t.max(), 20.0);
}

TEST(LogHistogram, BucketsAndOverflow)
{
    LogHistogram h(1.0, 1000.0, 1); // 3 buckets: [1,10), [10,100), ...
    EXPECT_EQ(h.bucketCount(), 3u);
    h.record(5.0);
    h.record(50.0);
    h.record(0.5);    // underflow
    h.record(5000.0); // overflow
    EXPECT_EQ(h.bucketValue(0), 1u);
    EXPECT_EQ(h.bucketValue(1), 1u);
    EXPECT_EQ(h.bucketValue(2), 0u);
    EXPECT_EQ(h.underflows(), 1u);
    EXPECT_EQ(h.overflows(), 1u);
}

TEST(LogHistogram, OutOfRangeSamplesClampWithoutUndefinedCasts)
{
    LogHistogram h(1.0, 1000.0, 1);
    // NaN is rejected and counted separately; +inf and any finite value
    // past the last bucket clamp to the overflow counter -- neither is
    // ever converted to a bucket index (size_t casts of NaN/inf/huge
    // doubles are undefined behaviour).
    h.record(std::nan(""));
    h.record(std::numeric_limits<double>::infinity());
    h.record(1e300);
    h.record(1000.0); // exactly the upper bound: first index past range
    EXPECT_EQ(h.nanRejected(), 1u);
    EXPECT_EQ(h.overflows(), 3u);
    EXPECT_EQ(h.underflows(), 0u);
    for (std::size_t i = 0; i < h.bucketCount(); ++i)
        EXPECT_EQ(h.bucketValue(i), 0u);
    // -inf and negative values fall below lo and count as underflow.
    h.record(-std::numeric_limits<double>::infinity());
    h.record(-5.0);
    EXPECT_EQ(h.underflows(), 2u);
}

TEST(LogHistogram, MidpointsAreGeometric)
{
    LogHistogram h(1.0, 100.0, 1);
    EXPECT_NEAR(h.bucketMid(0), std::sqrt(10.0), 1e-9);
    EXPECT_NEAR(h.bucketMid(1), std::sqrt(1000.0), 1e-6);
}

TEST(CycleBreakdown, FractionsSumToOne)
{
    CycleBreakdown b;
    b.add(CycleClass::Working, 60.0);
    b.add(CycleClass::Dummy, 25.0);
    b.add(CycleClass::Idle, 10.0);
    b.add(CycleClass::Other, 5.0);
    EXPECT_DOUBLE_EQ(b.total(), 100.0);
    double sum = 0.0;
    for (auto c : {CycleClass::Working, CycleClass::Dummy, CycleClass::Idle,
                   CycleClass::Other})
        sum += b.fraction(c);
    EXPECT_NEAR(sum, 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(b.fraction(CycleClass::Working), 0.6);
}

TEST(CycleBreakdown, MergeAccumulates)
{
    CycleBreakdown a, b;
    a.add(CycleClass::Working, 10.0);
    b.add(CycleClass::Idle, 30.0);
    a += b;
    EXPECT_DOUBLE_EQ(a.get(CycleClass::Working), 10.0);
    EXPECT_DOUBLE_EQ(a.get(CycleClass::Idle), 30.0);
    EXPECT_DOUBLE_EQ(a.total(), 40.0);
}

TEST(CycleBreakdown, EmptyFractionsZero)
{
    CycleBreakdown b;
    EXPECT_DOUBLE_EQ(b.fraction(CycleClass::Idle), 0.0);
}

TEST(Table, RendersAlignedColumns)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addSeparator();
    t.addRow({"b", "12345"});
    std::ostringstream oss;
    t.print(oss);
    std::string s = oss.str();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("12345"), std::string::npos);
    // All lines equally wide.
    std::istringstream lines(s);
    std::string line;
    std::size_t width = 0;
    while (std::getline(lines, line)) {
        if (width == 0)
            width = line.size();
        EXPECT_EQ(line.size(), width);
    }
}

TEST(Table, NumFormatting)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(LatencyTrackerMerge, ExactlyEqualsConcatenation)
{
    // Merged percentiles must be order statistics of the concatenated
    // sample sets -- bit-for-bit what record()ing every sample into one
    // tracker yields, never a recombination of the parts' quantiles.
    Rng rng(7);
    LatencyTracker a, b, concat;
    for (int i = 0; i < 257; ++i) {
        double s = rng.exponential(0.01);
        a.record(s);
        concat.record(s);
    }
    for (int i = 0; i < 63; ++i) {
        double s = rng.exponential(0.1);
        b.record(s);
        concat.record(s);
    }
    a.merge(b);
    ASSERT_EQ(a.count(), concat.count());
    for (double p : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0})
        EXPECT_EQ(a.percentile(p), concat.percentile(p)) << "p" << p;
    EXPECT_EQ(a.min(), concat.min());
    EXPECT_EQ(a.max(), concat.max());
    EXPECT_DOUBLE_EQ(a.mean(), concat.mean());
}

TEST(LatencyTrackerMerge, EmptyContributorCannotPoisonTheMean)
{
    // The zero-weight-neighbour class of bug (PR 4): combining parts
    // via weighted means multiplies an empty part's 0 count into its
    // mean -- 0 * (0/0) = NaN -- and one empty replica would poison the
    // fleet. merge() adds raw sums instead, so an empty contributor is
    // exactly a no-op.
    LatencyTracker full, empty;
    full.record(10.0);
    full.record(30.0);
    full.merge(empty);
    EXPECT_EQ(full.count(), 2u);
    EXPECT_DOUBLE_EQ(full.mean(), 20.0);
    EXPECT_DOUBLE_EQ(full.percentile(0.5), 20.0);

    // Merging INTO an empty tracker is a plain copy of the samples.
    empty.merge(full);
    EXPECT_EQ(empty.count(), 2u);
    EXPECT_DOUBLE_EQ(empty.mean(), 20.0);

    // Both empty stays empty (and every statistic stays finite).
    LatencyTracker e1, e2;
    e1.merge(e2);
    EXPECT_EQ(e1.count(), 0u);
    EXPECT_DOUBLE_EQ(e1.mean(), 0.0);
    EXPECT_DOUBLE_EQ(e1.percentile(0.99), 0.0);
}

TEST(LatencyTrackerMerge, InfiniteSamplesMergeAsOrderedValues)
{
    LatencyTracker a, b;
    a.record(1.0);
    b.record(std::numeric_limits<double>::infinity());
    b.record(2.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_TRUE(std::isinf(a.max()));
    EXPECT_TRUE(std::isinf(a.percentile(1.0)));
    EXPECT_DOUBLE_EQ(a.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(a.percentile(0.5), 2.0);
}

TEST(LatencyTrackerMerge, CarriesNanRejectionCounts)
{
    LatencyTracker a, b;
    a.record(std::nan(""));
    a.record(1.0);
    b.record(std::nan(""));
    b.record(std::nan(""));
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
    EXPECT_EQ(a.nanRejected(), 3u);
}

TEST(LatencyTrackerMerge, SelfMergeDoublesTheSamples)
{
    LatencyTracker t;
    t.record(1.0);
    t.record(3.0);
    t.merge(t);
    EXPECT_EQ(t.count(), 4u);
    EXPECT_DOUBLE_EQ(t.mean(), 2.0);
    EXPECT_DOUBLE_EQ(t.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(t.percentile(1.0), 3.0);
}

TEST(LatencyTrackerMerge, MergeAfterQueryStaysSorted)
{
    // merge() appends to a lazily-sorted buffer; a query between
    // merges must not freeze a stale sort.
    LatencyTracker a, b;
    a.record(10.0);
    EXPECT_DOUBLE_EQ(a.percentile(0.5), 10.0); // sorts a
    b.record(0.0);
    b.record(20.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(a.percentile(1.0), 20.0);
    EXPECT_DOUBLE_EQ(a.percentile(0.5), 10.0);
}

} // namespace
} // namespace stats
} // namespace equinox

// Appended: fault-statistics merge tests (the cluster result merge).

#include "stats/fault_stats.hh"

namespace equinox
{
namespace stats
{
namespace
{

TEST(FaultStatsMerge, AccumulatesEveryCounter)
{
    FaultStats a, b;
    a.dram_corrected = 1;
    a.mmu_hangs = 2;
    a.watchdog_resets = 1;
    a.downtime_cycles = 100;
    a.recovery_cycles.record(50.0);

    b.dram_corrected = 10;
    b.dram_uncorrectable = 3;
    b.host_drops = 4;
    b.host_corruptions = 5;
    b.mmu_hangs = 6;
    b.host_retries = 7;
    b.host_give_ups = 8;
    b.watchdog_resets = 9;
    b.checkpoints_written = 10;
    b.rollbacks = 11;
    b.lost_training_iterations = 12;
    b.shed_requests = 13;
    b.storms_entered = 14;
    b.downtime_cycles = 900;
    b.recovery_cycles.record(150.0);

    a.merge(b);
    EXPECT_EQ(a.dram_corrected, 11u);
    EXPECT_EQ(a.dram_uncorrectable, 3u);
    EXPECT_EQ(a.host_drops, 4u);
    EXPECT_EQ(a.host_corruptions, 5u);
    EXPECT_EQ(a.mmu_hangs, 8u);
    EXPECT_EQ(a.host_retries, 7u);
    EXPECT_EQ(a.host_give_ups, 8u);
    EXPECT_EQ(a.watchdog_resets, 10u);
    EXPECT_EQ(a.checkpoints_written, 10u);
    EXPECT_EQ(a.rollbacks, 11u);
    EXPECT_EQ(a.lost_training_iterations, 12u);
    EXPECT_EQ(a.shed_requests, 13u);
    EXPECT_EQ(a.storms_entered, 14u);
    EXPECT_EQ(a.downtime_cycles, 1000u);
    EXPECT_EQ(a.recovery_cycles.count(), 2u);
    EXPECT_DOUBLE_EQ(a.recovery_cycles.mean(), 100.0);
    EXPECT_EQ(a.totalFaults(), b.totalFaults() + 1 + 2);
}

TEST(FaultStatsMerge, MergingZeroRecordIsANoOp)
{
    FaultStats a, zero;
    a.mmu_hangs = 3;
    a.downtime_cycles = 70;
    a.recovery_cycles.record(10.0);
    a.merge(zero);
    EXPECT_EQ(a.mmu_hangs, 3u);
    EXPECT_EQ(a.downtime_cycles, 70u);
    EXPECT_EQ(a.recovery_cycles.count(), 1u);
    EXPECT_DOUBLE_EQ(a.recovery_cycles.mean(), 10.0);
}

} // namespace
} // namespace stats
} // namespace equinox

// Appended: named-statistics registry tests.

#include <sstream>

#include "stats/registry.hh"

namespace equinox
{
namespace stats
{
namespace
{

TEST(StatRegistry, RegisterAndRead)
{
    StatRegistry reg;
    int counter = 0;
    reg.registerStat("mmu.busy", [&] { return counter * 1.0; }, "cycles");
    reg.setValue("cfg.n", 143.0);
    EXPECT_EQ(reg.size(), 2u);
    EXPECT_TRUE(reg.contains("mmu.busy"));
    EXPECT_FALSE(reg.contains("mmu.idle"));
    EXPECT_DOUBLE_EQ(reg.value("mmu.busy"), 0.0);
    counter = 7;
    EXPECT_DOUBLE_EQ(reg.value("mmu.busy"), 7.0); // live getter
    EXPECT_DOUBLE_EQ(reg.value("cfg.n"), 143.0);
}

TEST(StatRegistry, ReRegistrationReplaces)
{
    StatRegistry reg;
    reg.setValue("x", 1.0);
    reg.setValue("x", 2.0);
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_DOUBLE_EQ(reg.value("x"), 2.0);
}

TEST(StatRegistry, DumpIsSortedAndComplete)
{
    StatRegistry reg;
    reg.setValue("b.second", 2.0, "two");
    reg.setValue("a.first", 1.0, "one");
    std::ostringstream oss;
    reg.dump(oss);
    std::string s = oss.str();
    auto a_pos = s.find("a.first");
    auto b_pos = s.find("b.second");
    EXPECT_NE(a_pos, std::string::npos);
    EXPECT_NE(b_pos, std::string::npos);
    EXPECT_LT(a_pos, b_pos);
    EXPECT_NE(s.find("two"), std::string::npos);
}

TEST(StatRegistryDeath, MissingStatIsFatal)
{
    StatRegistry reg;
    EXPECT_DEATH(reg.value("nope"), "no statistic named");
}

} // namespace
} // namespace stats
} // namespace equinox

// Appended: empty / single-sample merge regression pins (the
// overload-resilience PR folds these trackers into cluster digests, so
// the merged bit patterns must stay exactly stable).

#include "stats/fault_stats.hh"

namespace equinox
{
namespace stats
{
namespace
{

TEST(LatencyTrackerMerge, SingleSampleIntoEmptyPinsBitwise)
{
    // One sample through a merge must come out bit-identical: count 1,
    // mean/min/max/percentiles exactly the recorded double.
    const double sample = 0.12345678901234567;
    LatencyTracker src;
    src.record(sample);

    LatencyTracker dst;
    dst.merge(src);
    EXPECT_EQ(dst.count(), 1u);
    EXPECT_EQ(dst.mean(), sample);
    EXPECT_EQ(dst.min(), sample);
    EXPECT_EQ(dst.max(), sample);
    for (double p : {0.0, 0.5, 0.99, 1.0})
        EXPECT_EQ(dst.percentile(p), sample) << "p" << p;

    // And the mirror image: empty merged into single-sample.
    LatencyTracker single;
    single.record(sample);
    single.merge(LatencyTracker{});
    EXPECT_EQ(single.count(), 1u);
    EXPECT_EQ(single.mean(), sample);
    EXPECT_EQ(single.percentile(0.5), sample);
}

TEST(LatencyTrackerMerge, TwoSingleSamplesInterpolateExactly)
{
    // The interpolated order statistic over {1.0, 3.0} is pinned: p50
    // sits exactly halfway, p0/p100 on the samples themselves.
    LatencyTracker a, b;
    a.record(1.0);
    b.record(3.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_EQ(a.percentile(0.0), 1.0);
    EXPECT_EQ(a.percentile(1.0), 3.0);
    EXPECT_EQ(a.percentile(0.5), 2.0);
    EXPECT_EQ(a.mean(), 2.0);
}

TEST(FaultStatsMerge, SingleSampleRecoveryTrackerSurvivesMergeChain)
{
    // empty <- single <- empty must leave the one recovery sample (and
    // every counter) bitwise intact through the whole chain.
    const double cycles = 12345.6789;
    FaultStats single;
    single.mmu_hangs = 1;
    single.recovery_cycles.record(cycles);

    FaultStats acc;
    acc.merge(FaultStats{});
    acc.merge(single);
    acc.merge(FaultStats{});
    EXPECT_EQ(acc.mmu_hangs, 1u);
    EXPECT_EQ(acc.totalFaults(), 1u);
    EXPECT_EQ(acc.recovery_cycles.count(), 1u);
    EXPECT_EQ(acc.recovery_cycles.mean(), cycles);
    EXPECT_EQ(acc.recovery_cycles.percentile(0.99), cycles);

    // Both-empty merge stays a true zero record.
    FaultStats e1, e2;
    e1.merge(e2);
    EXPECT_EQ(e1.totalFaults(), 0u);
    EXPECT_EQ(e1.downtime_cycles, 0u);
    EXPECT_EQ(e1.recovery_cycles.count(), 0u);
    EXPECT_EQ(e1.recovery_cycles.mean(), 0.0);
}

} // namespace
} // namespace stats
} // namespace equinox

// Appended: the sorted sliding window every router-side p99 reads, and
// the pull-based candidate stream the routers draw from.

#include <algorithm>
#include <deque>

#include "cluster/router.hh"
#include "stats/sliding_window.hh"

namespace equinox
{
namespace stats
{
namespace
{

/** The copy-and-sort the window replaces: sort the last w samples. */
double
referencePercentile(const std::deque<double> &recent, double p)
{
    std::vector<double> sorted(recent.begin(), recent.end());
    std::sort(sorted.begin(), sorted.end());
    return exactPercentileSorted(sorted, p);
}

TEST(SlidingWindow, MatchesCopyAndSortBitwise)
{
    // percentile() syncs the sorted copy only when read: fewer than w
    // pending pushes are replayed one by one, w or more re-sort the
    // last w samples. Reading after every k pushes, for k = 1 and on
    // both sides of w, and at seeded random gaps, drives both paths.
    const double inf = std::numeric_limits<double>::infinity();
    for (std::size_t w : {1u, 2u, 64u, 256u}) {
        std::vector<std::size_t> gaps = {1, w, w + 1, 3 * w};
        if (w > 1)
            gaps.push_back(w - 1);
        gaps.push_back(0); // 0: a fresh random gap in [1, 3w + 1]
        for (std::size_t gap : gaps) {
            for (int mode = 0; mode < 3; ++mode) {
                Rng rng(1000 + w * 3 + static_cast<std::size_t>(mode) +
                        gap * 7);
                SlidingWindow window(w);
                std::deque<double> recent;
                auto nextGap = [&] {
                    return gap ? gap
                               : static_cast<std::size_t>(
                                     rng.uniformInt(1, 3 * w + 1));
                };
                std::size_t until_read = nextGap();
                const std::size_t pushes =
                    std::max<std::size_t>(3000, 12 * w);
                for (std::size_t i = 0; i < pushes; ++i) {
                    double x;
                    if (mode == 0)
                        x = rng.exponential(0.01); // distinct values
                    else if (mode == 1)
                        x = static_cast<double>(rng.uniformInt(0, 4));
                    else // heavy duplicates plus +inf samples
                        x = rng.uniform() < 0.2
                                ? inf
                                : static_cast<double>(
                                      rng.uniformInt(1, 3));
                    window.push(x);
                    recent.push_back(x);
                    if (recent.size() > w)
                        recent.pop_front();

                    ASSERT_EQ(window.size(), recent.size());
                    ASSERT_EQ(window.back(), recent.back());
                    if (--until_read > 0)
                        continue;
                    until_read = nextGap();
                    for (double p : {0.0, 0.5, 0.99, 1.0}) {
                        double got = window.percentile(p);
                        double want = referencePercentile(recent, p);
                        // Bitwise: memcmp-equal, which also equates
                        // +inf.
                        ASSERT_EQ(std::memcmp(&got, &want, sizeof got),
                                  0)
                            << "w " << w << " gap " << gap << " mode "
                            << mode << " push " << i << " p " << p
                            << ": " << got << " vs " << want;
                    }
                }
            }
        }
    }
}

TEST(SlidingWindow, EvictsOldestFirst)
{
    SlidingWindow window(3);
    EXPECT_TRUE(window.empty());
    for (double x : {5.0, 1.0, 3.0, 2.0}) // 5 leaves on the 4th push
        window.push(x);
    EXPECT_EQ(window.size(), 3u);
    EXPECT_EQ(window.back(), 2.0);
    EXPECT_EQ(window.percentile(0.0), 1.0);
    EXPECT_EQ(window.percentile(1.0), 3.0);
    EXPECT_EQ(window.percentile(0.5), 2.0);
}

TEST(SlidingWindowDeath, ZeroLengthIsFatal)
{
    EXPECT_DEATH(SlidingWindow(0), "nonzero length");
}

/**
 * The candidate recipe written out longhand: exponential waits at the
 * peak rate, `Tick(wait) + 1` increments, Lewis-Shedler thinning only
 * when surge windows exist, and the one-past-the-horizon candidate
 * always kept.
 */
std::vector<Tick>
referenceCandidates(double rate, std::uint64_t seed, Tick horizon,
                    const std::vector<cluster::RouterSurge> &surges)
{
    std::vector<Tick> ticks;
    if (rate <= 0.0)
        return ticks;
    double peak = 1.0;
    for (const auto &s : surges)
        peak = std::max(peak, s.factor);
    Rng rng(seed * 7919 + 1);
    Tick t = 0;
    while (true) {
        t += static_cast<Tick>(rng.exponential(rate * peak)) + 1;
        if (t > horizon) {
            ticks.push_back(t);
            return ticks;
        }
        if (surges.empty()) {
            ticks.push_back(t);
            continue;
        }
        double factor = 1.0;
        for (const auto &s : surges) {
            if (t >= s.from && t < s.to)
                factor = std::max(factor, s.factor);
        }
        if (rng.uniform() * peak < factor)
            ticks.push_back(t);
    }
}

std::vector<Tick>
drain(ArrivalStream stream)
{
    std::vector<Tick> ticks;
    for (Tick t = 0; stream.next(t);)
        ticks.push_back(t);
    Tick t = 0;
    EXPECT_FALSE(stream.next(t)) << "an exhausted stream stays exhausted";
    return ticks;
}

TEST(ArrivalStream, EqualsGenerateCandidateTicks)
{
    const Tick horizon = 400000;
    const std::vector<cluster::RouterSurge> none;
    const std::vector<cluster::RouterSurge> surges{
        {50000, 120000, 3.0}, {100000, 200000, 1.5}, {300000, 310000, 6.0}};

    struct Case
    {
        double rate;
        const std::vector<cluster::RouterSurge> *surges;
    };
    for (const Case &c : {Case{0.0, &none}, Case{-1.0, &surges},
                          Case{2e-3, &none}, Case{2e-3, &surges}}) {
        for (std::uint64_t seed : {1u, 2u, 3u}) {
            auto streamed =
                drain(ArrivalStream(c.rate, seed, 0, horizon, *c.surges));
            auto vec = cluster::generateCandidateTicks(c.rate, seed,
                                                       horizon, *c.surges);
            EXPECT_EQ(streamed, vec) << "rate " << c.rate;
            EXPECT_EQ(streamed, referenceCandidates(c.rate, seed, horizon,
                                                    *c.surges))
                << "rate " << c.rate;
            if (c.rate <= 0.0) {
                EXPECT_TRUE(streamed.empty());
                continue;
            }
            // Exactly one candidate lies past the horizon, and it ends
            // the stream.
            ASSERT_FALSE(streamed.empty());
            EXPECT_GT(streamed.back(), horizon);
            EXPECT_LE(streamed[streamed.size() - 2], horizon);
        }
    }
}

} // namespace
} // namespace stats
} // namespace equinox
