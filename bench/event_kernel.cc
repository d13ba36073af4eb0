/**
 * @file
 * Event-kernel microbenchmark: the simulator's EventQueue against a
 * faithful reimplementation of the pre-refactor kernel (a binary heap
 * of std::function callbacks, re-heapified on every dispatch).
 *
 * The workload is the stress case for the queue's same-tick FIFO path:
 * callbacks capture 24 bytes of state (a block pointer plus two
 * operands -- past std::function's inline buffer, inside Callback's),
 * every tick is a 512-event burst, and every firing fans out three
 * follow-ups at the current tick. The simulator itself sits at the
 * other end: on perfbench chip_colocated 99.9% of the ticks the heap
 * opens hold one event, 1-10 events are pending, and no schedule lands
 * in the open tick -- the one-event-tick path, which micro_kernels'
 * BM_EventQueueSteady measures. Both kernels run the byte-identical
 * workload and must produce the same checksum and dispatch count; the
 * figure of merit is the events/s ratio, recorded in
 * BENCH_event_kernel.json (acceptance: >= 3x).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "bench_common.hh"
#include "common/random.hh"
#include "sim/event_queue.hh"

using namespace equinox;

namespace
{

/**
 * Workload shape shared by both kernels: a bounded set of concurrent
 * "actors" (blocks with periodic wakeups) that keep the pending set
 * steady instead of pre-loading one huge heap, which would just time
 * the shared O(log n) cost. Every actor fires on the same tick grid,
 * so each tick is a width-sized same-tick burst, and each firing fans
 * out three current-tick micro-callbacks. Those never touch the time
 * heap in the batched kernel; the reference kernel pays a full heap
 * round trip and a std::function allocation for every one.
 */
struct WorkloadSpec
{
    std::size_t width = 512; //!< concurrent self-rescheduling actors
    std::size_t rounds = 1000; //!< firings per actor (gap: 64 ticks)
    std::size_t fanout = 3;    //!< same-tick micro-callbacks per firing
};

/** Mutable state every handler captures a pointer to. */
struct KernelState
{
    std::uint64_t acc = 0;
    std::uint64_t chained = 0;
};

/**
 * The pre-refactor kernel, reproduced from git history: one binary
 * heap of (when, seq, std::function), std::push_heap on schedule and
 * std::pop_heap on every single dispatch -- no same-tick FIFO, no
 * small-buffer callback.
 */
class ReferenceKernel
{
  public:
    void
    schedule(Tick when, std::function<void()> fn)
    {
        heap_.push_back(Entry{when, next_seq_++, std::move(fn)});
        std::push_heap(heap_.begin(), heap_.end(), Later{});
    }

    Tick now() const { return now_; }

    bool
    runOne()
    {
        if (heap_.empty())
            return false;
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        Entry e = std::move(heap_.back());
        heap_.pop_back();
        now_ = e.when;
        ++dispatched_;
        e.fn();
        return true;
    }

    std::uint64_t dispatched() const { return dispatched_; }

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
    std::vector<Entry> heap_;
    Tick now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t dispatched_ = 0;
};

/**
 * Drive the shared workload through either kernel. The handler logic
 * is identical; only the queue type differs, so the checksum/dispatch
 * deltas isolate the kernel itself.
 */
template <typename Queue>
std::uint64_t
runWorkload(Queue &q, KernelState &st, const WorkloadSpec &spec)
{
    // 32 bytes: past libstdc++ std::function's 16-byte inline buffer
    // (one heap allocation per schedule there), exactly at Callback's
    // inline limit (zero allocations here).
    struct Handler
    {
        Queue *q;
        KernelState *st;
        std::uint64_t a;
        std::uint16_t remaining;
        std::uint8_t fanout; //!< same-tick micro-callbacks to spawn
        std::uint8_t chain;  //!< 1 = micro-callback, no respawn

        void
        operator()() const
        {
            st->acc += a ^ (st->acc >> 7);
            if (chain)
                return;
            std::uint64_t next =
                a * 6364136223846793005ull + 1442695040888963407ull;
            // Current-tick fan-out: the retire/wakeup sub-steps.
            for (std::uint8_t c = 0; c < fanout; ++c) {
                ++st->chained;
                q->schedule(q->now(),
                            Handler{q, st, (next + c) | 1, 0, 0, 1});
            }
            if (remaining > 0) {
                Tick gap = 64;
                q->schedule(q->now() + gap,
                            Handler{q, st, next,
                                    static_cast<std::uint16_t>(remaining - 1),
                                    fanout, 0});
            }
        }
    };

    Rng rng(17);
    for (std::size_t i = 0; i < spec.width; ++i) {
        q.schedule(0, Handler{&q, &st, rng.uniformInt(1, 1u << 30),
                              static_cast<std::uint16_t>(spec.rounds - 1),
                              static_cast<std::uint8_t>(spec.fanout), 0});
    }
    while (q.runOne()) {
    }
    return q.dispatched();
}

struct KernelScore
{
    double wall_s = 0.0;
    std::uint64_t events = 0;
    std::uint64_t checksum = 0;
    double eventsPerSecond() const
    {
        return wall_s > 0.0 ? static_cast<double>(events) / wall_s : 0.0;
    }
};

template <typename MakeQueue>
KernelScore
timeKernel(const WorkloadSpec &spec, std::size_t reps, MakeQueue make)
{
    KernelScore score;
    for (std::size_t r = 0; r < reps; ++r) {
        auto q = make();
        KernelState st;
        auto t0 = std::chrono::steady_clock::now();
        std::uint64_t events = runWorkload(*q, st, spec);
        auto t1 = std::chrono::steady_clock::now();
        score.wall_s += std::chrono::duration<double>(t1 - t0).count();
        score.events += events;
        score.checksum ^= st.acc;
    }
    return score;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Harness harness(
        argc, argv, "event_kernel", "event-kernel microbenchmark",
        "EventQueue (SBO callbacks + batched same-tick dispatch) vs "
        "the pre-refactor std::function heap on a same-tick-burst "
        "workload");

    WorkloadSpec spec;
    const std::size_t reps = 8;

    // Warm-up iteration per kernel so the first timed rep does not pay
    // first-touch page faults for the allocator arenas.
    (void)timeKernel(spec, 1, [] {
        return std::make_unique<ReferenceKernel>();
    });
    (void)timeKernel(spec, 1, [&] {
        auto q = std::make_unique<sim::EventQueue>();
        q->reserve(spec.width + 8);
        return q;
    });

    KernelScore ref = timeKernel(spec, reps, [] {
        return std::make_unique<ReferenceKernel>();
    });
    KernelScore neo = timeKernel(spec, reps, [&] {
        auto q = std::make_unique<sim::EventQueue>();
        q->reserve(spec.width + 8);
        return q;
    });

    // Both kernels preserve the (tick, insertion-order) contract, so
    // the runs must agree exactly -- a free differential check of the
    // batched-dispatch kernel against the straightforward model.
    EQX_ASSERT(neo.checksum == ref.checksum,
               "kernel divergence: checksums differ (", neo.checksum,
               " vs ", ref.checksum, ")");
    EQX_ASSERT(neo.events == ref.events,
               "kernel divergence: dispatch counts differ (",
               neo.events, " vs ", ref.events, ")");

    double speedup = ref.eventsPerSecond() > 0.0
                         ? neo.eventsPerSecond() / ref.eventsPerSecond()
                         : 0.0;

    bench::section("results");
    std::printf("workload: %zu actors x %zu rounds x %zu-way same-tick "
                "fan-out, %llu micro-callbacks, %zu reps\n",
                spec.width, spec.rounds, spec.fanout,
                static_cast<unsigned long long>(
                    neo.events - reps * spec.width * spec.rounds),
                reps);
    std::printf("reference (std::function heap): %.3f s, %.3g events/s\n",
                ref.wall_s, ref.eventsPerSecond());
    std::printf("EventQueue (SBO + batched):     %.3f s, %.3g events/s\n",
                neo.wall_s, neo.eventsPerSecond());
    std::printf("speedup: %.2fx (acceptance: >= 3x)\n", speedup);

    sim::addGlobalDispatchedEvents(neo.events);
    harness.note("reference_events_per_second", ref.eventsPerSecond());
    harness.note("kernel_events_per_second", neo.eventsPerSecond());
    harness.note("kernel_speedup", speedup);
    harness.note("workload_events", neo.events);
    harness.finish();
    return 0;
}
