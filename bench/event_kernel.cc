/**
 * @file
 * Event-kernel microbenchmark: sim::EventQueue on its same-tick-burst
 * stress case.
 *
 * The workload exercises the queue's same-tick FIFO path: callbacks
 * capture 24 bytes of state (a block pointer plus two operands --
 * inside Callback's inline buffer), every tick is a 512-event burst,
 * and every firing fans out three follow-ups at the current tick. The
 * simulator itself sits at the other end: on perfbench chip_colocated
 * 99.9% of the ticks the heap opens hold one event, 1-10 events are
 * pending, and no schedule lands in the open tick -- the one-event-tick
 * path, which micro_kernels' BM_EventQueueSteady measures. The figure
 * of merit is events/s, recorded in BENCH_event_kernel.json as the
 * `kernel_events_per_second` note; the A/B gate (scripts/ab.py) times
 * the whole run's wall clock against a base revision.
 */

#include <chrono>
#include <cstdint>

#include "bench_common.hh"
#include "common/random.hh"
#include "sim/event_queue.hh"

using namespace equinox;

namespace
{

/**
 * Workload shape: a bounded set of concurrent "actors" (blocks with
 * periodic wakeups) that keep the pending set steady instead of
 * pre-loading one huge heap, which would just time the O(log n) heap
 * cost. Every actor fires on the same tick grid, so each tick is a
 * width-sized same-tick burst, and each firing fans out three
 * current-tick micro-callbacks, which never touch the time heap.
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

/** Drive the workload through @p q; returns the dispatch count. */
std::uint64_t
runWorkload(sim::EventQueue &q, KernelState &st, const WorkloadSpec &spec)
{
    // 32 bytes: exactly at Callback's inline limit (zero allocations).
    struct Handler
    {
        sim::EventQueue *q;
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

KernelScore
timeKernel(const WorkloadSpec &spec, std::size_t reps)
{
    KernelScore score;
    for (std::size_t r = 0; r < reps; ++r) {
        sim::EventQueue q;
        q.reserve(spec.width + 8);
        KernelState st;
        auto t0 = std::chrono::steady_clock::now();
        std::uint64_t events = runWorkload(q, st, spec);
        auto t1 = std::chrono::steady_clock::now();
        score.wall_s += std::chrono::duration<double>(t1 - t0).count();
        score.events += events;
        score.checksum = st.acc; // every rep runs the same workload
    }
    return score;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Harness harness(
        argc, argv, "event_kernel", "event-kernel microbenchmark",
        "EventQueue (SBO callbacks + batched same-tick dispatch) on a "
        "same-tick-burst workload");

    WorkloadSpec spec;
    const std::size_t reps = 8;

    // Warm-up iteration so the first timed rep does not pay first-touch
    // page faults for the allocator arenas.
    (void)timeKernel(spec, 1);
    KernelScore score = timeKernel(spec, reps);

    bench::section("results");
    std::printf("workload: %zu actors x %zu rounds x %zu-way same-tick "
                "fan-out, %llu micro-callbacks, %zu reps\n",
                spec.width, spec.rounds, spec.fanout,
                static_cast<unsigned long long>(
                    score.events - reps * spec.width * spec.rounds),
                reps);
    std::printf("EventQueue: %llu events, checksum %016llx\n",
                static_cast<unsigned long long>(score.events),
                static_cast<unsigned long long>(score.checksum));

    sim::addGlobalDispatchedEvents(score.events);
    harness.note("kernel_events_per_second", score.eventsPerSecond());
    harness.note("workload_events", score.events);
    harness.finish();
    return 0;
}
