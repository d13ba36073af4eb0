#include "sim/event_queue.hh"

#include <atomic>

#include "common/logging.hh"
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
EventQueue::schedule(Tick when, Callback cb)
{
    EQX_ASSERT(when >= now_, "scheduling into the past: ", when, " < ",
               now_);
    if (tick_open_ && when == now_) {
        // The running tick's FIFO is open: appending preserves the
        // (tick, seq) order directly because seq is globally monotonic
        // and every same-tick entry with a smaller seq is already in
        // the FIFO (refillFifo drained the heap of this tick).
        fifo_.push_back(Entry{when, next_seq++, std::move(cb)});
    } else {
        heap_.push(Entry{when, next_seq++, std::move(cb)});
    }
    noteHighWater();
}

bool
EventQueue::refillFifo()
{
    // Pool reuse: clear() keeps the vector's capacity, so after warmup
    // tick turnover performs no allocation.
    fifo_.clear();
    fifo_head_ = 0;
    if (heap_.empty()) {
        tick_open_ = false;
        return false;
    }
    const Tick t = heap_.top().when;
    now_ = t;
    // Batched same-tick drain: pop every entry for tick t once, in
    // (tick, seq) order. Draining the FIFO afterwards never touches
    // the heap again, and same-tick schedules made by the callbacks
    // append behind fifo_head_ in O(1).
    do {
        fifo_.push_back(heap_.pop());
    } while (!heap_.empty() && heap_.top().when == t);
    tick_open_ = true;
    return true;
}

bool
EventQueue::runOne()
{
    if (fifo_head_ >= fifo_.size() && !refillFifo())
        return false;
    // Move the entry out before invoking: the callback may schedule
    // more events (growing the FIFO) and the moved-out closure avoids
    // a dangling reference into the reallocated vector.
    Callback cb = std::move(fifo_[fifo_head_++].cb);
    ++dispatched_;
    cb();
    return true;
}

} // namespace sim
} // namespace equinox
