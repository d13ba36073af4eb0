/**
 * @file
 * The discrete-event kernel driving the cycle-accurate simulation.
 *
 * Components schedule callbacks at future ticks; the queue dispatches
 * them in (tick, insertion-order) order. Components are written to
 * tolerate stale wakeups (they re-check state on wake), so no
 * cancellation API is needed.
 *
 * Same-cycle ordering contract (load-bearing for reproducibility):
 * events scheduled for the same tick dispatch in exactly the order
 * their schedule()/scheduleIn() calls were made, regardless of which
 * callback made them -- a strict FIFO per tick, implemented by tagging
 * every future-tick entry with a global monotonically increasing
 * sequence number and appending current-tick ones behind them. In
 * particular, an event a running callback schedules for the CURRENT
 * tick runs after every same-tick event that was already queued. The
 * simulator's byte-identical replay guarantee (and the golden digests
 * in test_refactor_identity.cc) depends on this: blocks deliberately
 * encode priority as call order, never by racing on a tick.
 *
 * Representation (hot-path kernel overhaul):
 *  - Callback is an inline-only type-erased callable. Every closure
 *    the simulator schedules (a block pointer plus a couple of
 *    scalars) is trivially copyable and at most kInlineBytes, so every
 *    schedule() is allocation-free -- unlike std::function, whose
 *    16-byte libstdc++ SBO spilled the common [this, batch, chunk]
 *    capture to the heap on every schedule(). Any other closure is a
 *    compile error.
 *  - Callbacks live in a slot pool, written once by schedule() and
 *    moved out once by the dispatch. The binary heap sifts only
 *    24-byte (when, seq, slot) keys, not 64-byte entries carrying the
 *    callback; freed slots are reused last-in first-out, and
 *    reserve() sizes the heap and the pool together.
 *  - Two dispatch paths, picked by the tick of the heap entry behind
 *    the one being popped. When that entry lands on a LATER tick (the
 *    simulator's regime: on perfbench chip_colocated 99.9% of the
 *    ticks the heap opens hold one event, the heap holds 1-10 entries,
 *    and no schedule lands in the open tick), runOne() pops the top
 *    and runs it at once; the FIFO is never touched. When it SHARES
 *    the tick, every other entry of that tick is popped off the heap
 *    once, in (tick, seq) order, into a flat FIFO of slot numbers that
 *    is drained without re-heapifying (bench/event_kernel's same-tick
 *    bursts are the stress case for this path). A schedule() at the
 *    current tick appends to the FIFO in O(1) instead of
 *    round-tripping through the heap. The FIFO vector is
 *    reused across ticks (capacity is retained when cleared), so tick
 *    turnover allocates nothing.
 *  - Steady-state fast-forward (off in a fresh queue; the accelerator
 *    turns it on for every run except the differential tests'
 *    reference path, RunSpec::fast_forward = false): scheduleFast()
 *    lets a caller sitting in TAIL POSITION of the current event's
 *    callback chain dispatch its child event inline when that child
 *    would provably be the queue's very next dispatch anyway
 *    (canInline()). The simulated clock advances to the child's tick
 *    exactly as runOne() would have, so every observable -- trace
 *    ticks, handler order, RNG draw order, final now() -- is
 *    byte-identical to the scheduled path; only the heap round-trip,
 *    the Callback construction, and the runOne() iteration are
 *    skipped. Inlined dispatches count toward dispatched() (they are
 *    real simulation events), and are additionally reported by
 *    inlined(). inlineHorizon() is the first tick at which anything
 *    but such an inline chain can run; the datapath issues the
 *    inference granules that end before it as one span. See DESIGN.md
 *    section 2.7 for the invariants.
 *  - Reserved sequence numbers: reserveSeq() hands out the seq a
 *    schedule() would take without scheduling, and scheduleReserved()
 *    later pushes an event under it, so work that is usually settled
 *    without an event (the training prefetcher's deferred staging
 *    fills, DESIGN.md section 2.7) keeps its place among same-tick
 *    events when it does become one.
 */

#ifndef EQUINOX_SIM_EVENT_QUEUE_HH
#define EQUINOX_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/min_heap.hh"
#include "common/types.hh"

namespace equinox
{
namespace sim
{

/**
 * Move-only type-erased callable stored inline.
 *
 * Only trivially copyable, trivially destructible closures of at most
 * kInlineBytes (and at most max_align_t alignment) are accepted; any
 * other closure does not compile -- capture a pointer to the state
 * instead. Moves are a memcpy plus nulling the source, valid because
 * the payload is trivially copyable.
 */
class Callback
{
  public:
    /**
     * Inline capture budget. 32 bytes fits every closure the blocks
     * schedule today (block pointer + batch pointer + chunk is 24
     * bytes), and keeps a pool slot at 48 bytes.
     */
    static constexpr std::size_t kInlineBytes = 32;

    /** Whether a closure of type @p D can be stored. */
    template <typename D>
    static constexpr bool kFitsInline =
        sizeof(D) <= kInlineBytes &&
        alignof(D) <= alignof(std::max_align_t) &&
        std::is_trivially_copyable_v<D> &&
        std::is_trivially_destructible_v<D>;

    Callback() = default;

    template <typename Fn, typename D = std::decay_t<Fn>>
        requires(!std::is_same_v<D, Callback> && kFitsInline<D>)
    Callback(Fn &&fn) // NOLINT: intentional implicit conversion
    {
        ::new (static_cast<void *>(buf_)) D(std::forward<Fn>(fn));
        invoke_ = [](void *p) { (*static_cast<D *>(p))(); };
    }

    Callback(Callback &&other) noexcept : invoke_(other.invoke_)
    {
        std::memcpy(buf_, other.buf_, sizeof(buf_));
        other.invoke_ = nullptr;
    }

    Callback &
    operator=(Callback &&other) noexcept
    {
        if (this != &other) {
            invoke_ = other.invoke_;
            std::memcpy(buf_, other.buf_, sizeof(buf_));
            other.invoke_ = nullptr;
        }
        return *this;
    }

    Callback(const Callback &) = delete;
    Callback &operator=(const Callback &) = delete;

    explicit operator bool() const { return invoke_ != nullptr; }

    void operator()() { invoke_(buf_); }

  private:
    /**
     * Every other closure resolves here. Being private, it makes
     * std::is_constructible report false, and using it fails with the
     * static_assert below.
     */
    template <typename Fn, typename D = std::decay_t<Fn>>
        requires(!std::is_same_v<D, Callback> && !kFitsInline<D>)
    Callback(Fn &&)
    {
        static_assert(kFitsInline<D>,
                      "sim::Callback stores only trivially copyable "
                      "closures of at most kInlineBytes: capture a "
                      "pointer to the state");
    }

    void (*invoke_)(void *) = nullptr;
    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

/** Tick-ordered callback queue. */
class EventQueue
{
  public:
    using Callback = sim::Callback;

    /** Current simulated tick. */
    Tick now() const { return now_; }

    /**
     * Pre-allocate storage for @p events pending entries -- heap keys
     * and callback slots alike -- so steady growth does not reallocate
     * mid-run (the accelerator reserves its expected high-water mark up
     * front).
     */
    void
    reserve(std::size_t events)
    {
        heap_.reserve(events);
        slots_.reserve(events);
        free_slots_.reserve(events);
    }

    /** Schedule @p cb at absolute tick @p when (>= now). */
    void
    schedule(Tick when, Callback cb)
    {
        EQX_ASSERT(when >= now_, "scheduling into the past: ", when, " < ",
                   now_);
        const std::uint32_t slot = store(std::move(cb));
        if (when == now_) {
            // Appending to the current tick's FIFO preserves the
            // (tick, seq) order directly: the heap holds no entry at
            // now_, so every same-tick entry scheduled earlier is
            // already in the FIFO or dispatched.
            fifo_.push_back(slot);
        } else {
            heap_.push(Key{when, next_seq_++, slot});
        }
        noteHighWater();
    }

    /** Schedule @p cb @p delta ticks from now. */
    void
    scheduleIn(Tick delta, Callback cb)
    {
        schedule(now_ + delta, std::move(cb));
    }

    /**
     * Take the sequence number a future-tick schedule() made now would
     * get, without scheduling anything. A caller that may later turn
     * the work into an event passes it to scheduleReserved(), which
     * puts the event where this schedule() would have: after every
     * same-tick event scheduled before the reservation, before every
     * one scheduled after it.
     */
    std::uint64_t reserveSeq() { return next_seq_++; }

    /**
     * Schedule @p cb at @p when under @p seq, a number reserveSeq()
     * returned. @p when must lie strictly in the future: the open
     * tick's events already sit in the FIFO in seq order, and a
     * reserved seq could not be placed among them.
     */
    void
    scheduleReserved(Tick when, std::uint64_t seq, Callback cb)
    {
        EQX_ASSERT(when > now_, "reserved event not in the future: ",
                   when, " <= ", now_);
        EQX_ASSERT(seq < next_seq_, "seq ", seq, " was never reserved");
        heap_.push(Key{when, seq, store(std::move(cb))});
        noteHighWater();
    }

    /**
     * Enable (or disable) steady-state fast-forward. @p limit is the
     * last tick scheduleFast() may inline at: events landing past it
     * are scheduled for real, reproducing the run loop's exactly-one-
     * event overshoot semantics at the horizon. The accelerator sets
     * this per run from RunSpec::fast_forward (on unless a test asks for
     * the reference path); the queue default is off so the raw
     * contract tests see the scheduled path.
     */
    void
    setFastForward(bool on, Tick limit)
    {
        ff_on_ = on;
        ff_limit_ = limit;
    }

    /** Dispatches inlined by fast-forward (subset of dispatched()). */
    std::uint64_t inlined() const { return inlined_; }

    /**
     * True when an event at @p when could dispatch inline right now:
     * fast-forward is on, recursion has headroom, the open tick's FIFO
     * is fully drained, every heap entry lands STRICTLY later than
     * @p when (a same-tick heap entry has a smaller seq and must run
     * first), and @p when is inside [now, ff_limit]. Under these
     * conditions the event is the queue's next dispatch, so running it
     * immediately is observationally identical to scheduling it.
     */
    bool
    canInline(Tick when) const
    {
        return ff_depth_ < kMaxInlineDepth && when >= now_ &&
               when < inlineHorizon();
    }

    /**
     * The first tick at which anything but the running callback's own
     * inline chain can happen: now() while fast-forward is off or the
     * open tick's FIFO still holds events, else the heap head's tick
     * or ff_limit + 1, whichever is sooner. An event strictly before
     * it is the queue's next dispatch (canInline()), and so is every
     * event of a chain that a tail-position caller runs there without
     * scheduling: the datapath folds the inference granules nothing
     * can interrupt into one span this way (DESIGN.md section 2.7).
     */
    Tick
    inlineHorizon() const
    {
        if (!ff_on_ || fifo_head_ < fifo_.size())
            return now_;
        Tick h = ff_limit_ == kTickMax ? kTickMax : ff_limit_ + 1;
        if (!heap_.empty() && heap_.top().when < h)
            h = heap_.top().when;
        return h;
    }

    /**
     * Schedule @p fn at @p when, dispatching it inline when canInline()
     * holds. ONLY valid from tail position of the running callback: no
     * code that could observe the old now(), schedule into it, or
     * mutate simulation state may run after this call returns up the
     * current dispatch chain. The inline path advances now() exactly
     * as runOne() would and invokes @p fn directly -- no Callback is
     * materialized and neither the heap nor the slot pool is touched.
     */
    template <typename Fn>
    void
    scheduleFast(Tick when, Fn &&fn)
    {
        if (canInline(when)) {
            now_ = when;
            fifo_.clear();
            fifo_head_ = 0;
            ++dispatched_;
            ++inlined_;
            ++ff_depth_;
            fn();
            --ff_depth_;
            return;
        }
        schedule(when, Callback(std::forward<Fn>(fn)));
    }

    /** scheduleFast() @p delta ticks from now. */
    template <typename Fn>
    void
    scheduleFastIn(Tick delta, Fn &&fn)
    {
        scheduleFast(now_ + delta, std::forward<Fn>(fn));
    }

    /**
     * Dispatch the earliest event. @return false when empty.
     *
     * With the open tick's FIFO drained, the heap top opens the next
     * tick and runs straight from the heap; only when the entry behind
     * it shares its tick are the rest of that tick moved to the FIFO.
     */
    bool
    runOne()
    {
        std::uint32_t slot;
        if (fifo_head_ < fifo_.size()) {
            slot = fifo_[fifo_head_++];
        } else {
            if (heap_.empty())
                return false;
            const Key top = heap_.pop();
            now_ = top.when;
            slot = top.slot;
            fifo_.clear();
            fifo_head_ = 0;
            if (!heap_.empty() && heap_.top().when == now_)
                drainOpenTick();
        }
        // Move the callback out and free its slot before invoking: the
        // callback may schedule more events, which may reuse the slot
        // or grow the pool.
        Callback cb = std::move(slots_[slot]);
        free_slots_.push_back(slot);
        ++dispatched_;
        cb();
        return true;
    }

    bool
    empty() const
    {
        return heap_.empty() && fifo_head_ >= fifo_.size();
    }

    std::size_t
    pending() const
    {
        return heap_.size() + (fifo_.size() - fifo_head_);
    }

    /** Events dispatched so far (for perf diagnostics). */
    std::uint64_t dispatched() const { return dispatched_; }

    /**
     * Most entries ever simultaneously pending. Consumers capture this
     * after a representative run to size reserve() for the next one.
     */
    std::size_t highWater() const { return high_water_; }

    /**
     * Reallocations of the key heap plus the callback slot pool since
     * construction (reserve audit: 0 = reserve() held).
     */
    std::uint64_t
    heapReallocations() const
    {
        return heap_.reallocations() + slot_reallocations_;
    }

  private:
    /**
     * A pending event's heap key: (when, seq) orders the dispatch and
     * slot names its callback in the pool.
     */
    struct Key
    {
        Tick when;
        /**
         * Global insertion counter breaking same-tick ties: the heap's
         * comparator alone would dispatch equal ticks in an arbitrary
         * (heap-shape-dependent) order, which would make runs depend on
         * scheduling history rather than program order.
         */
        std::uint64_t seq;
        std::uint32_t slot;
    };
    struct Later
    {
        bool
        operator()(const Key &a, const Key &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq; // same tick: FIFO by insertion
        }
    };

    /** Write @p cb into a free slot (the last one freed, if any). */
    std::uint32_t
    store(Callback &&cb)
    {
        if (!free_slots_.empty()) {
            const std::uint32_t slot = free_slots_.back();
            free_slots_.pop_back();
            slots_[slot] = std::move(cb);
            return slot;
        }
        if (slots_.size() == slots_.capacity())
            ++slot_reallocations_;
        slots_.push_back(std::move(cb));
        return static_cast<std::uint32_t>(slots_.size() - 1);
    }

    /** Move every remaining heap entry of the open tick to the FIFO. */
    void drainOpenTick();

    void
    noteHighWater()
    {
        std::size_t p = pending();
        if (p > high_water_)
            high_water_ = p;
    }

    /**
     * Future ticks. (when, seq) is a strict total order, so the
     * dispatch sequence is the comparator's alone -- independent of
     * internal heap shape.
     *
     * Invariant: the heap holds no entry with when == now_ -- opening a
     * tick drains them all, an inline dispatch lands strictly before
     * the heap top, and schedule() routes new ones to the FIFO. Every
     * FIFO entry was either drained in seq order or appended after
     * them, so draining the FIFO front-to-back IS (tick, seq) dispatch
     * order.
     */
    ReservedMinHeap<Key, Later> heap_;
    /** The open tick's remaining events (slots), drained in order. */
    std::vector<std::uint32_t> fifo_;
    std::size_t fifo_head_ = 0;
    /** Callback pool: one slot per pending event. */
    std::vector<Callback> slots_;
    /** Free slots of the pool, reused last-in first-out. */
    std::vector<std::uint32_t> free_slots_;
    std::uint64_t slot_reallocations_ = 0;
    Tick now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t dispatched_ = 0;
    std::size_t high_water_ = 0;

    /**
     * Inline-dispatch recursion cap: each inlined event adds a handful
     * of stack frames (completion -> dispatcher round -> issue ->
     * scheduleFast), so the cap bounds stack growth; hitting it falls
     * back to a real scheduled event, which unwinds the whole chain to
     * runOne() before dispatching.
     */
    static constexpr std::uint32_t kMaxInlineDepth = 64;
    bool ff_on_ = false;
    Tick ff_limit_ = 0;
    std::uint32_t ff_depth_ = 0;
    std::uint64_t inlined_ = 0;
};

/**
 * Process-wide total of events dispatched by completed simulation runs
 * (accumulated once per Accelerator::run; thread-safe). The bench perf
 * harness reports it as a wall-clock-independent work measure.
 *
 * Aggregation contract: the counter only ever grows within a process;
 * consumers that want per-phase numbers snapshot it and subtract (the
 * bench Harness does exactly that), or call resetGlobalSimCounters()
 * between phases when no simulation is running concurrently. Per-run
 * counts are reported directly in SimResult::events_dispatched, so
 * back-to-back runs never need the global counter at all.
 */
std::uint64_t globalDispatchedEvents();

/** Add @p n to the process-wide dispatched-event total. */
void addGlobalDispatchedEvents(std::uint64_t n);

/**
 * Zero the process-wide dispatched-event and traceRecordsDelivered()
 * counters. Only meaningful while no simulation runs concurrently
 * (counters are relaxed atomics; a racing run's increments land on
 * whichever side of the reset they land).
 */
void resetGlobalSimCounters();

} // namespace sim
} // namespace equinox

#endif // EQUINOX_SIM_EVENT_QUEUE_HH
