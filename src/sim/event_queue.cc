#include "sim/event_queue.hh"

#include <atomic>

#include "sim/blocks/trace.hh"

namespace equinox
{
namespace sim
{

namespace
{
std::atomic<std::uint64_t> g_dispatched_total{0};
} // namespace

std::uint64_t
globalDispatchedEvents()
{
    return g_dispatched_total.load(std::memory_order_relaxed);
}

void
addGlobalDispatchedEvents(std::uint64_t n)
{
    g_dispatched_total.fetch_add(n, std::memory_order_relaxed);
}

void
resetGlobalSimCounters()
{
    g_dispatched_total.store(0, std::memory_order_relaxed);
    resetTraceRecordsDelivered();
}

void
EventQueue::drainOpenTick()
{
    // Batched same-tick drain: pop every remaining entry of the open
    // tick once, in (tick, seq) order. Draining the FIFO afterwards
    // never touches the heap again, and same-tick schedules made by
    // the callbacks append behind fifo_head_ in O(1).
    do {
        fifo_.push_back(heap_.pop().slot);
    } while (!heap_.empty() && heap_.top().when == now_);
}

} // namespace sim
} // namespace equinox
