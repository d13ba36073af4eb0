/**
 * @file
 * Property suite for the event-kernel hot path: the inline-only
 * Callback, the two dispatch paths (a one-event tick runs straight off
 * the heap, a multi-entry tick drains into the same-tick FIFO), the
 * callback slot pool, and the reserved min-heap. These pin the
 * (tick, insertion-order) contract the golden identity digests stand
 * on, under exactly the access patterns the kernel optimizes --
 * current-tick self-scheduling, interleaved schedule()/scheduleIn(),
 * pool reuse across drained ticks -- plus a seeded fuzz of several
 * input shapes against a straightforward priority-queue reference
 * model, and one whose events reserve their seq when they are
 * scheduled and are pushed only later (reserveSeq/scheduleReserved).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <queue>
#include <type_traits>
#include <vector>

#include "common/min_heap.hh"
#include "common/random.hh"
#include "sim/event_queue.hh"

namespace equinox
{
namespace sim
{
namespace
{

// ----------------------------------------------------------- Callback

TEST(Callback, SmallTrivialCapturesStayInline)
{
    int sink = 0;
    int *p = &sink;
    Callback cb([p] { *p = 42; });
    cb();
    EXPECT_EQ(sink, 42);
}

TEST(Callback, CaptureAtTheInlineLimitStaysInline)
{
    // 32 bytes of trivially copyable capture: exactly Callback's
    // buffer. The hot block-layer closures (this + a couple of
    // operands) are well under this.
    std::uint64_t sink = 0;
    struct Fat
    {
        std::uint64_t *out;
        std::uint64_t a, b, c;
    } fat{&sink, 1, 2, 3};
    static_assert(sizeof(Fat) == 32, "limit probe must be 32 bytes");
    Callback cb([fat] { *fat.out = fat.a + fat.b + fat.c; });
    cb();
    EXPECT_EQ(sink, 6u);
}

TEST(Callback, OversizedOrNonTrivialCapturesDoNotCompile)
{
    // Callback is inline-only: a capture past kInlineBytes, or one that
    // is not trivially copyable, is rejected at compile time.
    std::uint64_t sink = 0;
    std::array<std::uint64_t, 8> big{};
    auto oversized = [&sink, big] {
        for (auto v : big)
            sink += v;
    };
    static_assert(!std::is_constructible_v<Callback, decltype(oversized)>);
    auto counter = std::make_shared<int>(0);
    auto shared = [counter] { ++*counter; };
    static_assert(!std::is_constructible_v<Callback, decltype(shared)>);
}

TEST(Callback, MoveTransfersTheInlineBuffer)
{
    int sink = 0;
    int *p = &sink;
    Callback a([p] { ++*p; });
    Callback b = std::move(a);
    EXPECT_FALSE(a);
    ASSERT_TRUE(b);
    b();
    EXPECT_EQ(sink, 1);
}

// ------------------------------------------- batched same-tick FIFO

TEST(EventKernel, CurrentTickSelfSchedulingPreservesFifo)
{
    // Handlers that schedule at now() while their tick is being
    // drained must run this tick, after everything already queued --
    // the append lands in the open FIFO, not back in the heap.
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] {
        order.push_back(0);
        q.schedule(5, [&] { order.push_back(3); });
    });
    q.schedule(5, [&] { order.push_back(1); });
    q.schedule(5, [&] {
        order.push_back(2);
        q.schedule(5, [&] { order.push_back(4); });
    });
    while (q.runOne()) {
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(q.now(), 5u);
}

TEST(EventKernel, ChainedSelfSchedulingDrainsBeforeAdvancing)
{
    // A self-scheduling chain at the current tick runs to completion
    // before the queue moves to the next tick.
    EventQueue q;
    std::vector<std::pair<Tick, int>> seen;
    int depth = 0;
    std::function<void()> chain = [&] {
        seen.emplace_back(q.now(), depth);
        if (++depth < 4)
            q.schedule(q.now(), [&] { chain(); });
    };
    q.schedule(2, [&] { chain(); });
    q.schedule(3, [&] { seen.emplace_back(q.now(), 99); });
    while (q.runOne()) {
    }
    ASSERT_EQ(seen.size(), 5u);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(seen[i].first, 2u);
        EXPECT_EQ(seen[i].second, i);
    }
    EXPECT_EQ(seen[4], (std::pair<Tick, int>{3, 99}));
}

TEST(EventKernel, InterleavedScheduleAndScheduleInAgree)
{
    // scheduleIn(delta) is schedule(now + delta); interleaving the two
    // on the same target tick must honour global insertion order.
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] {
        order.push_back(0);
        q.scheduleIn(0, [&] { order.push_back(2); });
        q.schedule(10, [&] { order.push_back(3); });
        q.scheduleIn(5, [&] { order.push_back(5); });
        q.schedule(15, [&] { order.push_back(6); });
    });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(10, [&] { order.push_back(4); });
    while (q.runOne()) {
    }
    // The three entries scheduled before the run opened tick 10 run in
    // their insertion order (0, 1, 4); the followups appended while
    // tick 10 was open run after them (2, 3); then the two tick-15
    // entries in insertion order (5, 6).
    EXPECT_EQ(order, (std::vector<int>{0, 1, 4, 2, 3, 5, 6}));
}

TEST(EventKernel, FifoPoolIsReusedAcrossTicks)
{
    // Draining a tick must not free the FIFO's storage: a steady-state
    // run recycles one allocation instead of growing per tick. The
    // heap side is pinned the same way via reserve().
    EventQueue q;
    const int kTicks = 200, kPerTick = 32;
    q.reserve(kTicks); // the pre-loaded tick grid is the high water
    int ran = 0;
    for (int t = 1; t <= kTicks; ++t)
        q.schedule(static_cast<Tick>(t), [&] {
            ++ran;
            // Same-tick followup exercises the open-FIFO append.
            if (ran % kPerTick == 0)
                q.schedule(q.now(), [&] { ++ran; });
        });
    while (q.runOne()) {
    }
    EXPECT_EQ(ran, kTicks + kTicks / kPerTick);
    EXPECT_EQ(q.heapReallocations(), 0u);
    EXPECT_LE(q.highWater(), static_cast<std::size_t>(kTicks));
}

TEST(EventKernel, ReserveFromHighWaterPinsTheNextRun)
{
    // The Accelerator's cross-run contract: reserving a previous run's
    // highWater() makes the identical next run allocation-free.
    auto load = [](EventQueue &q, std::size_t reserve) {
        q.reserve(reserve);
        Rng rng(11);
        for (int i = 0; i < 500; ++i)
            q.schedule(rng.uniformInt(0, 4096), [] {});
        while (q.runOne()) {
        }
    };
    EventQueue first;
    load(first, 0);
    ASSERT_GT(first.highWater(), 0u);
    EventQueue second;
    load(second, first.highWater());
    EXPECT_EQ(second.heapReallocations(), 0u);
    EXPECT_EQ(second.highWater(), first.highWater());
}

// ------------------------------------------------------ 10k-event fuzz

/** Straight-line reference model: one ordered priority queue. */
class ModelQueue
{
  public:
    void
    schedule(Tick when, std::function<void()> fn)
    {
        heap_.push(Entry{when, seq_++, std::move(fn)});
    }

    std::uint64_t reserveSeq() { return seq_++; }

    void
    scheduleReserved(Tick when, std::uint64_t seq, std::function<void()> fn)
    {
        heap_.push(Entry{when, seq, std::move(fn)});
    }

    Tick now() const { return now_; }
    std::size_t pending() const { return heap_.size(); }

    bool
    runOne()
    {
        if (heap_.empty())
            return false;
        Entry e = std::move(const_cast<Entry &>(heap_.top()));
        heap_.pop();
        now_ = e.when;
        e.fn();
        return true;
    }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        std::function<void()> fn;
    };
    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };
    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
};

/**
 * One fuzz input shape. The spread of the initial ticks against their
 * count sets how often a tick holds one event (the heap-top path) or
 * several (the FIFO path); the follow-up odds set how often a callback
 * schedules into its own open tick or into a later one.
 */
struct FuzzShape
{
    const char *name;
    int seeds;          //!< initial events
    Tick spread;        //!< initial ticks drawn from [0, spread]
    std::uint64_t same_tick_every; //!< 1 in N firings: current-tick child
    std::uint64_t future_every;    //!< 1 in N firings: later-tick child
    Tick max_delta;     //!< later-tick children land 1..max_delta ahead
    int budget;         //!< follow-up generations per initial event
};

/** One dispatch as both queues must see it. */
struct Dispatch
{
    Tick when;
    int id;
    std::size_t pending; //!< events still queued when it ran
    bool
    operator==(const Dispatch &o) const
    {
        return when == o.when && id == o.id && pending == o.pending;
    }
};

std::ostream &
operator<<(std::ostream &os, const Dispatch &d)
{
    return os << "{t=" << d.when << " id=" << d.id << " pending="
              << d.pending << "}";
}

/**
 * Drive a randomized workload of @p shape -- future schedules,
 * current-tick followups, short chains -- through either queue and
 * record every dispatch with the queue's pending count.
 */
template <typename Queue>
std::vector<Dispatch>
fuzzRun(Queue &q, std::uint64_t seed, const FuzzShape &shape)
{
    std::vector<Dispatch> log;
    Rng rng(seed);
    int next_id = 0;
    // Handlers draw follow-up decisions from a hash of their id so
    // both queues see the identical schedule sequence.
    std::function<void(int, int)> fire = [&](int id, int budget) {
        log.push_back(Dispatch{q.now(), id, q.pending()});
        if (budget <= 0)
            return;
        std::uint64_t h = static_cast<std::uint64_t>(id) * 2654435761u ^
                          seed;
        if (h % shape.same_tick_every == 0) {
            int cid = next_id++;
            q.schedule(q.now(), [&fire, cid, budget] {
                fire(cid, budget - 1);
            });
        }
        if ((h >> 8) % shape.future_every == 0) {
            int cid = next_id++;
            Tick delta = 1 + (h >> 16) % shape.max_delta;
            q.schedule(q.now() + delta, [&fire, cid, budget] {
                fire(cid, budget - 1);
            });
        }
    };
    for (int i = 0; i < shape.seeds; ++i) {
        int id = next_id++;
        Tick when = rng.uniformInt(0, shape.spread);
        q.schedule(when, [&fire, id, &shape] { fire(id, shape.budget); });
    }
    while (q.runOne()) {
    }
    return log;
}

TEST(EventKernel, FuzzMatchesReferenceModel)
{
    // Every shape runs through both dispatch paths and reuses pool
    // slots thousands of times; "sparse" is the simulator's regime
    // (almost every tick holds one event), "bursty" the same-tick
    // storms of bench/event_kernel, "mixed" everything in between.
    const FuzzShape shapes[] = {
        {"mixed", 10000, Tick{1} << 14, 3, 5, 97, 3},
        {"sparse", 2000, Tick{1} << 24, 11, 1, 1u << 16, 12},
        {"sparse_chains", 8, Tick{1} << 10, 16, 1, 1u << 12, 60},
        {"bursty", 4000, 63, 2, 2, 3, 4},
        {"self_scheduling", 3000, Tick{1} << 16, 1, 3, 1u << 12, 5},
    };
    for (const FuzzShape &shape : shapes) {
        for (std::uint64_t seed : {1ull, 29ull, 8191ull}) {
            EventQueue real;
            ModelQueue model;
            auto got = fuzzRun(real, seed, shape);
            auto want = fuzzRun(model, seed, shape);
            ASSERT_GE(got.size(), static_cast<std::size_t>(shape.seeds))
                << shape.name << " seed " << seed;
            ASSERT_EQ(got.size(), want.size())
                << shape.name << " seed " << seed;
            for (std::size_t i = 0; i < got.size(); ++i) {
                ASSERT_EQ(got[i], want[i])
                    << shape.name << " seed " << seed << " dispatch " << i;
            }
            EXPECT_EQ(real.dispatched(), got.size());
            EXPECT_TRUE(real.empty());
        }
    }
}

/**
 * Drive a randomized workload through either queue in which some
 * events take their seq when they are scheduled (reserveSeq) and are
 * pushed only later, from another event's handler (scheduleReserved),
 * while plain events keep landing on the same ticks in between. Held
 * reservations are pushed in a hash-chosen order while their tick is
 * still in the future; one whose tick arrives first is dropped, as a
 * settled staging fill's is.
 */
template <typename Queue>
std::vector<Dispatch>
reservedFuzzRun(Queue &q, std::uint64_t seed)
{
    struct Held
    {
        Tick when;
        std::uint64_t seq;
        int id;
        int budget;
    };
    std::vector<Dispatch> log;
    std::vector<Held> held;
    Rng rng(seed);
    int next_id = 0;
    std::function<void(int, int)> fire = [&](int id, int budget) {
        log.push_back(Dispatch{q.now(), id, q.pending()});
        std::uint64_t h = static_cast<std::uint64_t>(id) ^ seed;
        h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
        h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
        h ^= h >> 31;
        // Push the reservations this firing picks, newest first half
        // the time, so pushes are not in reservation order.
        const bool newest_first = (h >> 3) & 1;
        std::vector<Held> keep;
        for (std::size_t k = 0; k < held.size(); ++k) {
            const Held &r = held[newest_first ? held.size() - 1 - k : k];
            if (r.when <= q.now())
                continue; // its tick arrived unpushed: dropped
            if ((h >> (5 + k % 32)) & 1) {
                int cid = r.id;
                int cb = r.budget;
                q.scheduleReserved(r.when, r.seq,
                                   [&fire, cid, cb] { fire(cid, cb); });
            } else {
                keep.push_back(r);
            }
        }
        if (newest_first)
            std::reverse(keep.begin(), keep.end());
        held = std::move(keep);
        if (budget <= 0)
            return;
        Tick ahead = 1 + (h >> 40) % 6;
        if (h % 3 == 0) {
            // Reserve at a near tick, then schedule a plain event on the
            // same tick: once pushed, the reservation must run first.
            held.push_back(Held{q.now() + ahead, q.reserveSeq(),
                                next_id++, budget - 1});
            int cid = next_id++;
            q.schedule(q.now() + ahead, [&fire, cid, budget] {
                fire(cid, budget - 1);
            });
        }
        if ((h >> 8) % 2 == 0) {
            int cid = next_id++;
            Tick delta = 1 + (h >> 16) % 6;
            q.schedule(q.now() + delta, [&fire, cid, budget] {
                fire(cid, budget - 1);
            });
        }
        if ((h >> 12) % 5 == 0) {
            int cid = next_id++;
            q.schedule(q.now(), [&fire, cid, budget] {
                fire(cid, budget - 1);
            });
        }
    };
    for (int i = 0; i < 500; ++i) {
        int id = next_id++;
        Tick when = rng.uniformInt(0, 255);
        q.schedule(when, [&fire, id] { fire(id, 6); });
    }
    while (q.runOne()) {
    }
    return log;
}

TEST(EventKernel, ReservedSeqFuzzMatchesReferenceModel)
{
    for (std::uint64_t seed : {3ull, 71ull, 4099ull, 65537ull}) {
        EventQueue real;
        ModelQueue model;
        auto got = reservedFuzzRun(real, seed);
        auto want = reservedFuzzRun(model, seed);
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
        for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_EQ(got[i], want[i]) << "seed " << seed << " dispatch "
                                       << i;
        EXPECT_EQ(real.dispatched(), got.size());
        EXPECT_TRUE(real.empty());
    }
}

TEST(EventKernel, ReservedSeqKeepsItsPlaceAmongSameTickEvents)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(0); });
    std::uint64_t seq = q.reserveSeq();
    q.schedule(10, [&] { order.push_back(2); });
    q.schedule(4, [&] {
        // Pushed later, from another event: still ahead of the event
        // scheduled after the reservation.
        q.scheduleReserved(10, seq, [&] { order.push_back(1); });
    });
    while (q.runOne()) {
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventKernelDeathTest, ScheduleReservedOutsideTheFutureDies)
{
    EventQueue q;
    std::uint64_t seq = q.reserveSeq();
    q.schedule(5, [] {});
    ASSERT_TRUE(q.runOne());
    EXPECT_DEATH(q.scheduleReserved(5, seq, [] {}),
                 "reserved event not in the future");
    EXPECT_DEATH(q.scheduleReserved(3, seq, [] {}),
                 "reserved event not in the future");
}

// ------------------------------------------------- ReservedMinHeap

TEST(ReservedMinHeap, OrdersByComparatorWithSeqTiebreak)
{
    struct Ev
    {
        Tick t;
        std::uint64_t seq;
    };
    struct Later
    {
        bool
        operator()(const Ev &a, const Ev &b) const
        {
            if (a.t != b.t)
                return a.t > b.t;
            return a.seq > b.seq;
        }
    };
    ReservedMinHeap<Ev, Later> heap;
    heap.reserve(8);
    heap.push({30, 0});
    heap.push({10, 1});
    heap.push({10, 2});
    heap.push({20, 3});
    std::vector<std::uint64_t> seqs;
    while (!heap.empty())
        seqs.push_back(heap.pop().seq);
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 2, 3, 0}));
    EXPECT_EQ(heap.reallocations(), 0u);
    EXPECT_EQ(heap.highWater(), 4u);
}

TEST(ReservedMinHeap, CountsReallocationsWhenUnderReserved)
{
    struct Less
    {
        bool operator()(int a, int b) const { return a > b; }
    };
    ReservedMinHeap<int, Less> heap;
    for (int i = 0; i < 100; ++i)
        heap.push(i);
    EXPECT_GT(heap.reallocations(), 0u);
    EXPECT_EQ(heap.highWater(), 100u);
}

} // namespace
} // namespace sim
} // namespace equinox
