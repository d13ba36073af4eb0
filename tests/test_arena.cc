/**
 * @file
 * Unit tests of the common/arena.hh allocation primitives the simulator
 * hot path runs on: ObjectPool (construct-once batch storage) and Ring
 * (the pending-arrivals queue).
 *
 * Determinism matters more than speed here: reuse after reset() must
 * hand out objects in the exact order a fresh pool would, because batch
 * pointers feed scheduling decisions and back-to-back runs must be
 * byte-identical to first runs. The asan preset re-runs this suite to
 * prove the recycling schemes are leak- and UAF-clean.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <vector>

#include "common/arena.hh"
#include "common/random.hh"
#include "sim_digest.hh"
#include "stats/registry.hh"

namespace equinox
{
namespace
{

using common::ObjectPool;
using common::Ring;

// ---------------------------------------------------------------------
// ObjectPool
// ---------------------------------------------------------------------

struct Payload
{
    std::vector<int> grown;
    int tag = 0;
};

TEST(ObjectPool, AcquireConstructsOnceAndReuses)
{
    ObjectPool<Payload> pool;
    Payload *a = pool.acquire();
    a->grown.resize(64);
    a->tag = 1;
    pool.release(a);

    Payload *b = pool.acquire();
    EXPECT_EQ(b, a); // freelist reuse, most recently released first
    // Construct-once: internal capacity survives the round trip.
    EXPECT_GE(b->grown.capacity(), 64u);
    EXPECT_EQ(pool.totalObjects(), 1u);
    EXPECT_EQ(pool.acquires(), 2u);
    EXPECT_EQ(pool.reuses(), 1u);
}

TEST(ObjectPool, ResetRestoresCanonicalAcquireOrder)
{
    ObjectPool<Payload> pool;
    std::vector<Payload *> first;
    for (int i = 0; i < 5; ++i)
        first.push_back(pool.acquire());

    // Release in a scrambled order, then reset: the next acquire
    // sequence must match the fresh pool's exactly (storage order),
    // not the scrambled release order.
    pool.release(first[3]);
    pool.release(first[0]);
    pool.release(first[4]);
    pool.release(first[1]);
    pool.release(first[2]);
    pool.reset();

    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(pool.acquire(), first[i]) << "position " << i;
    EXPECT_EQ(pool.totalObjects(), 5u);
}

TEST(ObjectPool, ResetReturnsLiveObjectsToo)
{
    ObjectPool<Payload> pool;
    (void)pool.acquire(); // left live: a batch the horizon cut off
    Payload *b = pool.acquire();
    pool.release(b);
    EXPECT_EQ(pool.live(), 1u);
    pool.reset();
    EXPECT_EQ(pool.live(), 0u);
    // Both objects acquirable again, canonical order.
    Payload *x = pool.acquire();
    Payload *y = pool.acquire();
    EXPECT_NE(x, y);
    EXPECT_EQ(pool.totalObjects(), 2u);
}

TEST(ObjectPool, HighWaterTracksPeakLiveCount)
{
    ObjectPool<Payload> pool;
    Payload *a = pool.acquire();
    Payload *b = pool.acquire();
    Payload *c = pool.acquire();
    EXPECT_EQ(pool.highWater(), 3u);
    pool.release(a);
    pool.release(b);
    pool.release(c);
    (void)pool.acquire();
    EXPECT_EQ(pool.highWater(), 3u); // peak, not current
    EXPECT_EQ(pool.live(), 1u);
}

// ---------------------------------------------------------------------
// Ring
// ---------------------------------------------------------------------

TEST(Ring, MatchesDequeUnderRandomChurn)
{
    Ring<std::uint64_t> ring;
    std::deque<std::uint64_t> ref;
    Rng rng(99);
    for (int step = 0; step < 20000; ++step) {
        bool push = ref.empty() || rng.uniformInt(0, 99) < 55;
        if (push) {
            std::uint64_t v = rng.uniformInt(0, 1u << 30);
            ring.push_back(v);
            ref.push_back(v);
        } else {
            ASSERT_EQ(ring.front(), ref.front());
            ring.pop_front();
            ref.pop_front();
        }
        ASSERT_EQ(ring.size(), ref.size());
        ASSERT_EQ(ring.empty(), ref.empty());
        if (!ref.empty()) {
            ASSERT_EQ(ring.front(), ref.front());
        }
    }
}

TEST(Ring, ClearKeepsCapacity)
{
    Ring<int> ring;
    for (int i = 0; i < 100; ++i)
        ring.push_back(i);
    std::size_t cap = ring.capacity();
    EXPECT_GE(cap, 100u);
    ring.clear();
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.capacity(), cap);
    ring.push_back(7);
    EXPECT_EQ(ring.front(), 7);
}

TEST(Ring, WrapsAcrossGrowth)
{
    Ring<int> ring;
    // Force a wrapped state, then grow: linearization must preserve
    // FIFO order.
    for (int i = 0; i < 16; ++i)
        ring.push_back(i);
    for (int i = 0; i < 10; ++i)
        ring.pop_front();
    for (int i = 16; i < 40; ++i)
        ring.push_back(i); // grows while head is mid-buffer
    for (int i = 10; i < 40; ++i) {
        ASSERT_EQ(ring.front(), i);
        ring.pop_front();
    }
    EXPECT_TRUE(ring.empty());
}

// ---------------------------------------------------------------------
// Arena-backed simulation end-to-end
// ---------------------------------------------------------------------

TEST(ArenaSim, BackToBackRunsReuseBatchesAndStayIdentical)
{
    // Two identical runs on one accelerator: the second run must be
    // digest-identical to the first (reset() restored canonical order)
    // and must serve its batches from the freelist.
    auto cfg = testutil::smallConfig();
    workload::Compiler compiler(cfg);
    sim::Accelerator accel(cfg);
    accel.installInference(compiler.compileInference(testutil::tinyRnn()));
    sim::RunSpec spec;
    spec.warmup_requests = 25;
    spec.measure_requests = 300;
    spec.seed = 11;
    spec.arrival_rate_per_s = 0.5 * accel.maxRequestRate();

    auto first = accel.run(spec);
    stats::StatRegistry reg;
    accel.registerStats(reg);
    double objects_after_first = reg.value("arena.batch_objects");
    EXPECT_GT(first.batches_formed, 0u);
    EXPECT_GT(objects_after_first, 0.0);

    auto second = accel.run(spec);
    EXPECT_EQ(testutil::digestOf(second), testutil::digestOf(first));
    EXPECT_GT(reg.value("arena.batch_reuses"), 0.0);
    // Steady state: the second identical run constructs nothing new.
    EXPECT_EQ(reg.value("arena.batch_objects"), objects_after_first);
    EXPECT_GT(reg.value("arena.batch_high_water"), 0.0);
}

} // namespace
} // namespace equinox
