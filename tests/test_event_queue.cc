/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"

namespace equinox
{
namespace sim
{
namespace
{

TEST(EventQueue, DispatchesInTickOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    while (q.runOne()) {
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(7, [&order, i] { order.push_back(i); });
    while (q.runOne()) {
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, SameTickFifoAcrossScheduleVariants)
{
    // The FIFO tie-break keys on call order, not on which entry point
    // (schedule vs scheduleIn) or which tick-distance was used.
    EventQueue q;
    std::vector<int> order;
    q.schedule(1, [&] {}); // advance now() to 1 first
    q.runOne();
    q.schedule(9, [&] { order.push_back(0); });
    q.scheduleIn(8, [&] { order.push_back(1); }); // 1 + 8 == 9
    q.schedule(9, [&] { order.push_back(2); });
    while (q.runOne()) {
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, CurrentTickInsertionRunsAfterQueuedSameTick)
{
    // An event a callback schedules for the CURRENT tick must run after
    // every same-tick event that was already queued: sequence numbers
    // keep growing across dispatches, so later insertions sort later.
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] {
        order.push_back(0);
        q.schedule(5, [&] { order.push_back(3); });
        q.scheduleIn(0, [&] { order.push_back(4); });
    });
    q.schedule(5, [&] { order.push_back(1); });
    q.schedule(5, [&] { order.push_back(2); });
    while (q.runOne()) {
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(q.now(), 5u);
}

TEST(EventQueue, FifoSurvivesInterleavedFutureTicks)
{
    // Interleaving insertions for different ticks must not disturb the
    // per-tick FIFO: ordering is (tick, global insertion order).
    EventQueue q;
    std::vector<int> order;
    q.schedule(20, [&] { order.push_back(20); });
    q.schedule(10, [&] { order.push_back(10); });
    q.schedule(20, [&] { order.push_back(21); });
    q.schedule(10, [&] { order.push_back(11); });
    q.schedule(20, [&] { order.push_back(22); });
    while (q.runOne()) {
    }
    EXPECT_EQ(order, (std::vector<int>{10, 11, 20, 21, 22}));
}

TEST(EventQueue, CallbacksCanSchedule)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&] {
        ++fired;
        q.scheduleIn(5, [&] { ++fired; });
    });
    while (q.runOne()) {
    }
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), 6u);
}

TEST(EventQueue, CountsDispatched)
{
    EventQueue q;
    for (int i = 0; i < 10; ++i)
        q.schedule(i, [] {});
    while (q.runOne()) {
    }
    EXPECT_EQ(q.dispatched(), 10u);
}

TEST(EventQueueDeath, SchedulingIntoPastPanics)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.runOne();
    EXPECT_DEATH(q.schedule(5, [] {}), "scheduling into the past");
}

} // namespace
} // namespace sim
} // namespace equinox

// Appended: randomized stress of the event kernel.

#include "common/random.hh"

namespace equinox
{
namespace sim
{
namespace
{

TEST(EventQueueProperty, RandomScheduleDispatchesInOrder)
{
    Rng rng(17);
    EventQueue q;
    Tick last_seen = 0;
    bool violated = false;
    int scheduled = 0;
    // Seed events; each callback may schedule more into the future.
    // The scheduled closures reach the shared state through one
    // reference, which keeps them within Callback's inline budget.
    auto fire = [&] {
        if (q.now() < last_seen)
            violated = true;
        last_seen = q.now();
        if (scheduled < 5000 && rng.uniform() < 0.4) {
            ++scheduled;
            q.scheduleIn(rng.uniformInt(0, 500) + 1, [&] {
                if (q.now() < last_seen)
                    violated = true;
                last_seen = q.now();
            });
        }
    };
    for (int i = 0; i < 200; ++i)
        q.schedule(rng.uniformInt(0, 10000), [&fire] { fire(); });
    while (q.runOne()) {
    }
    EXPECT_FALSE(violated);
    EXPECT_GE(q.dispatched(), 200u);
}

} // namespace
} // namespace sim
} // namespace equinox
