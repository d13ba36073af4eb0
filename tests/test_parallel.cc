/**
 * @file
 * Unit tests for the deterministic parallel sweep engine
 * (common/parallel): result ordering, exception propagation, the
 * serial fast path, nested-region degradation and the worker cap.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hh"

namespace equinox
{
namespace
{

TEST(DefaultJobs, AtLeastOne) { EXPECT_GE(defaultJobs(), 1u); }

TEST(DefaultJobs, ReadsEqxJobs)
{
    const char *old = std::getenv("EQX_JOBS");
    const std::string saved = old ? old : "";
    const std::size_t hw =
        std::max(1u, std::thread::hardware_concurrency());
    ::setenv("EQX_JOBS", "3", 1);
    EXPECT_EQ(defaultJobs(), 3u);
    // Anything but a positive integer is warned about and ignored.
    for (const char *bad : {"0", "-2", "4x", ""}) {
        ::setenv("EQX_JOBS", bad, 1);
        EXPECT_EQ(defaultJobs(), hw) << "EQX_JOBS='" << bad << "'";
    }
    if (old)
        ::setenv("EQX_JOBS", saved.c_str(), 1);
    else
        ::unsetenv("EQX_JOBS");
}

TEST(ParallelFor, ResultsLandAtTheirIndex)
{
    std::vector<std::size_t> serial(257, 0);
    parallelFor(1, serial.size(),
                [&](std::size_t i) { serial[i] = i * i; });
    for (std::size_t i = 0; i < serial.size(); ++i)
        ASSERT_EQ(serial[i], i * i) << "i=" << i;
    // jobs 0 is defaultJobs().
    for (std::size_t jobs : {0u, 2u, 4u, 5u, 16u, 64u}) {
        std::vector<std::size_t> out(257, 0);
        parallelFor(jobs, out.size(),
                    [&](std::size_t i) { out[i] = i * i; });
        EXPECT_EQ(out, serial) << "jobs=" << jobs;
    }
}

TEST(ParallelFor, EveryIndexRunsExactlyOnce)
{
    // 1000 indices on 3 and 8 workers: the indices >> workers regime
    // of a 1024-replica fleet. Workers claim indices from one counter,
    // so the fan-out stays at most `jobs` threads, none of them the
    // caller.
    const auto caller = std::this_thread::get_id();
    for (std::size_t jobs : {3u, 8u}) {
        std::vector<std::atomic<int>> hits(1000);
        std::mutex mtx;
        std::set<std::thread::id> threads;
        parallelFor(jobs, hits.size(), [&](std::size_t i) {
            ++hits[i];
            std::lock_guard<std::mutex> lock(mtx);
            threads.insert(std::this_thread::get_id());
        });
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << "jobs=" << jobs << " i=" << i;
        EXPECT_LE(threads.size(), jobs);
        EXPECT_EQ(threads.count(caller), 0u);
    }
}

TEST(ParallelFor, EmptyRangeIsANoop)
{
    bool ran = false;
    parallelFor(4, 0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ParallelFor, MoreJobsThanWork)
{
    std::vector<int> out(3, 0);
    parallelFor(64, out.size(), [&](std::size_t i) { out[i] = 1; });
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 3);
}

TEST(ParallelFor, SerialPathStaysOnCallingThread)
{
    const auto caller = std::this_thread::get_id();
    parallelFor(1, 8, [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_FALSE(inParallelRegion());
    });
}

TEST(ParallelFor, SingleItemStaysOnCallingThread)
{
    const auto caller = std::this_thread::get_id();
    parallelFor(8, 1, [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST(ParallelFor, LowestIndexExceptionWins)
{
    // Indices 3 and 7 both throw; the rethrown exception must be index
    // 3's regardless of wall-clock completion order. Repeat to give a
    // racy implementation chances to fail.
    for (int round = 0; round < 20; ++round) {
        try {
            parallelFor(4, 10, [&](std::size_t i) {
                if (i == 3 || i == 7)
                    throw std::runtime_error("boom " + std::to_string(i));
            });
            FAIL() << "expected an exception";
        }
        catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "boom 3");
        }
    }
    // Indices 2 and 9 throw on different workers, the higher one
    // first: index 2 holds its worker until index 9 has thrown, so 9
    // was claimed by another worker. Index 2's exception still wins.
    for (int round = 0; round < 20; ++round) {
        std::atomic<bool> nine_thrown{false};
        try {
            parallelFor(4, 12, [&](std::size_t i) {
                if (i == 2) {
                    while (!nine_thrown.load())
                        std::this_thread::yield();
                    throw std::runtime_error("boom 2");
                }
                if (i == 9) {
                    nine_thrown.store(true);
                    throw std::runtime_error("boom 9");
                }
            });
            FAIL() << "expected an exception";
        }
        catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "boom 2");
        }
    }
}

TEST(ParallelFor, ExceptionDoesNotAbortOtherIndices)
{
    std::vector<std::atomic<int>> hits(64);
    EXPECT_THROW(parallelFor(4, hits.size(),
                             [&](std::size_t i) {
                                 ++hits[i];
                                 if (i == 0)
                                     throw std::runtime_error("x");
                             }),
                 std::runtime_error);
    // Every index still executed: an exception marks the sweep failed
    // but does not cancel queued work.
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, SerialPathPropagatesExceptions)
{
    EXPECT_THROW(parallelFor(1, 4,
                             [](std::size_t i) {
                                 if (i == 2)
                                     throw std::logic_error("serial");
                             }),
                 std::logic_error);
}

TEST(ParallelFor, NestedCallDegradesToSerial)
{
    std::atomic<int> inner_total{0};
    parallelFor(4, 8, [&](std::size_t) {
        EXPECT_TRUE(inParallelRegion());
        const auto worker = std::this_thread::get_id();
        parallelFor(4, 5, [&](std::size_t) {
            // The nested loop must run inline on the same worker.
            EXPECT_EQ(std::this_thread::get_id(), worker);
            ++inner_total;
        });
    });
    EXPECT_EQ(inner_total.load(), 8 * 5);
    EXPECT_FALSE(inParallelRegion());
}

TEST(ParallelMap, CollectsInInputOrder)
{
    std::vector<int> inputs(100);
    std::iota(inputs.begin(), inputs.end(), 0);
    auto out =
        parallelMap(8, inputs, [](int v) { return std::to_string(v); });
    ASSERT_EQ(out.size(), inputs.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], std::to_string(i));
}

} // namespace
} // namespace equinox
