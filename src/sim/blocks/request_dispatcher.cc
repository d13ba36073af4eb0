#include "sim/blocks/request_dispatcher.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/units.hh"
#include "sim/blocks/context.hh"
#include "sim/blocks/fault_unit.hh"
#include "sim/blocks/instruction_dispatcher.hh"
#include "stats/registry.hh"

namespace equinox
{
namespace sim
{

RequestDispatcher::RequestDispatcher(SimContext &context)
    : SimBlock(context, "request_dispatcher")
{
}

RequestDispatcher::~RequestDispatcher() = default;

void
RequestDispatcher::connect(InstructionDispatcher *dispatcher_,
                           FaultUnit *faults_)
{
    dispatcher = dispatcher_;
    faults = faults_;
}

void
RequestDispatcher::resetRun()
{
    ctx.batch_queue.clear();
    ctx.unstarted_batches = 0;
    ctx.full_pending_services = 0;
    // Return every batch -- including ones the previous run's horizon
    // cut off mid-flight -- to the arena in canonical order, so this
    // run's acquire sequence matches a fresh accelerator's.
    ctx.batch_arena.reset();
    batches_formed = 0;
    batches_incomplete = 0;
    batch_fill_sum = 0.0;
    requests_admitted = 0;
}

void
RequestDispatcher::beginMeasurement()
{
    batches_formed = 0;
    batches_incomplete = 0;
    batch_fill_sum = 0.0;
    for (auto &svc : ctx.services)
        svc->latency_cycles.reset();
}

void
RequestDispatcher::registerStats(stats::StatRegistry &reg)
{
    reg.registerStat("request_dispatcher.requests_admitted",
                     [this] {
                         return static_cast<double>(requests_admitted);
                     },
                     "requests admitted to pending queues (run total)");
    reg.registerStat("request_dispatcher.batches_formed",
                     [this] {
                         return static_cast<double>(batches_formed);
                     },
                     "batches formed (measured window)");
    reg.registerStat("request_dispatcher.batches_incomplete",
                     [this] {
                         return static_cast<double>(batches_incomplete);
                     },
                     "padded partial batches (measured window)");
    reg.registerStat("request_dispatcher.pending_requests",
                     [this] {
                         double n = 0.0;
                         for (const auto &svc : ctx.services)
                             n += static_cast<double>(
                                 svc->pending.size());
                         return n;
                     },
                     "raw requests awaiting batch formation (live)");
    reg.registerStat("request_dispatcher.queued_batches",
                     [this] {
                         return static_cast<double>(
                             ctx.batch_queue.size());
                     },
                     "formed batches in the queue port (live)");
}

void
RequestDispatcher::beginRun()
{
    trace = ctx.spec.arrival_source;
    if (!trace && !ctx.spec.arrival_trace_ticks.empty()) {
        playback.reset(&ctx.spec.arrival_trace_ticks);
        trace = &playback;
    }
    trace_prev = 0;
    EQX_ASSERT(!trace || !ctx.services.empty(),
               "arrival trace needs an inference service");
    ctx.inference_load = false;
    ctx.full_pending_services = 0; // every pending queue clears below
    for (std::size_t i = 0; i < ctx.services.size(); ++i) {
        auto &svc = *ctx.services[i];
        svc.pending.clear();
        svc.timeout_armed = false;
        double rate = 0.0;
        if (!ctx.spec.arrival_rates.empty()) {
            if (i < ctx.spec.arrival_rates.size())
                rate = ctx.spec.arrival_rates[i];
        } else if (i == 0) {
            rate = ctx.spec.arrival_rate_per_s;
        }
        // Bursty mode samples candidates at the peak rate and thins
        // them to the on-phase at arrival time (Lewis-Shedler
        // thinning), giving an on/off-modulated Poisson process with
        // the configured mean.
        double rate_per_cycle = rate / ctx.cfg.frequency_hz;
        if (ctx.spec.arrival_process == ArrivalProcess::Bursty)
            rate_per_cycle *= ctx.spec.burst_factor;
        svc.arrivals =
            ArrivalStream(rate_per_cycle, ctx.spec.seed, svc.id, kTickMax);
        ctx.inference_load = ctx.inference_load || rate > 0.0;
        if (i == 0 && trace)
            ctx.inference_load = true;
        scheduleNextArrival(i);
    }
}

void
RequestDispatcher::scheduleNextArrival(std::size_t svc_idx)
{
    if (ctx.stopping)
        return;
    // Every call runs at the previous candidate's tick (or at tick 0 in
    // beginRun), so scheduling the candidate at its absolute tick keeps
    // the event insertion sequence -- and thus same-tick FIFO order --
    // of drawing one wait at a time. A trace (or arrival source) for
    // service 0 replaces its stream candidate for candidate; bursty
    // thinning and shedding still apply at arrival time, so a run fed
    // the ticks a stochastic run would have drawn is byte-identical to
    // it.
    Tick t = 0;
    if (svc_idx == 0 && trace) {
        if (!trace->next(t))
            return;
        EQX_ASSERT(t >= trace_prev, "tick trace must be ascending");
        trace_prev = t;
    } else if (!ctx.services[svc_idx]->arrivals.next(t)) {
        return;
    }
    ctx.events.schedule(t, [this, svc_idx] { onRequestArrival(svc_idx); });
}

bool
RequestDispatcher::inBurstOnPhase() const
{
    if (ctx.spec.arrival_process != ArrivalProcess::Bursty)
        return true;
    Tick period = units::secondsToCycles(ctx.spec.burst_period_s,
                                         ctx.cfg.frequency_hz);
    if (period == 0)
        return true;
    Tick on = static_cast<Tick>(static_cast<double>(period) /
                                ctx.spec.burst_factor);
    return (ctx.events.now() % period) < std::max<Tick>(on, 1);
}

void
RequestDispatcher::onRequestArrival(std::size_t svc_idx)
{
    if (ctx.stopping)
        return;
    auto &svc = *ctx.services[svc_idx];
    if (!inBurstOnPhase()) {
        // Thinned candidate: no request in the off phase.
        scheduleNextArrival(svc_idx);
        return;
    }
    if (faults->shedInference()) {
        // Severe fault storm: the degradation policy sheds requests at
        // admission rather than queuing into an impaired machine.
        faults->countShedRequest();
        emit(TraceEventType::RequestShed, svc.id);
        scheduleNextArrival(svc_idx);
        return;
    }
    svc.pending.push_back(ctx.events.now());
    if (svc.pending.size() == svc.desc.program.batch_rows)
        ++ctx.full_pending_services; // crossed the full-batch threshold
    ++requests_admitted;
    emit(TraceEventType::RequestArrival, svc.id, svc.pending.size());
    formFullBatches(svc);
    armBatchTimeout(svc);
    scheduleNextArrival(svc_idx);
    dispatcher->tryDispatch();
}

void
RequestDispatcher::formFullBatches(InfService &svc)
{
    const std::uint32_t batch_rows = svc.desc.program.batch_rows;
    if (svc.pending.size() >= batch_rows)
        --ctx.full_pending_services; // the loop drains below full
    while (svc.pending.size() >= batch_rows) {
        InfBatch *batch = ctx.batch_arena.acquire();
        batch->resetForReuse();
        batch->svc = &svc;
        batch->setReal(batch_rows, batch_rows);
        for (std::uint32_t i = 0; i < batch_rows; ++i) {
            batch->arrivals.push_back(svc.pending.front());
            svc.pending.pop_front();
        }
        // Batch inputs DMA in over the host interface before issue.
        ByteCount in_bytes = static_cast<ByteCount>(batch->real) *
                             svc.desc.input_bytes_per_request;
        batch->ready_at = in_bytes
                              ? faults->hostTransfer(ctx.events.now(),
                                                     in_bytes,
                                                     dram::Priority::High)
                              : ctx.events.now();
        if (ctx.measuring) {
            ++batches_formed;
            batch_fill_sum += 1.0;
            ctx.host_bytes_measured += in_bytes;
        }
        emit(TraceEventType::BatchFormed, svc.id, batch->real,
             batch_rows);
        ctx.batch_queue.push(batch);
        ++ctx.unstarted_batches;
    }
}

void
RequestDispatcher::formPartialBatch(InfService &svc)
{
    EQX_ASSERT(!svc.pending.empty(), "partial batch from empty queue");
    const std::uint32_t batch_rows = svc.desc.program.batch_rows;
    const bool was_full = svc.pending.size() >= batch_rows;
    InfBatch *batch = ctx.batch_arena.acquire();
    batch->resetForReuse();
    batch->svc = &svc;
    batch->setReal(static_cast<std::uint32_t>(std::min<std::size_t>(
                       svc.pending.size(), batch_rows)),
                   batch_rows);
    for (std::uint32_t i = 0; i < batch->real; ++i) {
        batch->arrivals.push_back(svc.pending.front());
        svc.pending.pop_front();
    }
    if (was_full && svc.pending.size() < batch_rows)
        --ctx.full_pending_services;
    ByteCount in_bytes = static_cast<ByteCount>(batch->real) *
                         svc.desc.input_bytes_per_request;
    batch->ready_at = in_bytes
                          ? faults->hostTransfer(ctx.events.now(),
                                                 in_bytes,
                                                 dram::Priority::High)
                          : ctx.events.now();
    if (ctx.measuring) {
        ++batches_formed;
        ++batches_incomplete;
        batch_fill_sum += batch->real_frac;
        ctx.host_bytes_measured += in_bytes;
    }
    emit(TraceEventType::BatchFormed, svc.id, batch->real, batch_rows);
    ctx.batch_queue.push(batch);
    ++ctx.unstarted_batches;
}

void
RequestDispatcher::armBatchTimeout(InfService &svc)
{
    if (ctx.cfg.batch_policy != BatchPolicy::Adaptive)
        return;
    if (svc.timeout_armed || svc.pending.empty())
        return;
    svc.timeout_armed = true;
    Tick fire_at = svc.pending.front() + svc.timeout_cycles;
    fire_at = std::max(fire_at, ctx.events.now());
    InfService *p = &svc;
    ctx.events.schedule(fire_at, [this, p] { onBatchTimeout(p); });
}

/**
 * The armed batch-formation timeout fired. The queue may have changed
 * arbitrarily since arming: the request the timer was armed for can be
 * long gone (batched into a full batch), and the queue can have drained
 * and refilled with younger requests. Each case must leave exactly one
 * live timer whenever requests are pending, keyed to the CURRENT oldest
 * request's deadline -- a request left waiting without a timer would
 * strand until the next arrival.
 */
void
RequestDispatcher::onBatchTimeout(InfService *svc)
{
    // The armed flag must drop before any early return: every exit path
    // below either re-arms explicitly or leaves the queue empty (and
    // the next arrival re-arms).
    svc->timeout_armed = false;
    if (svc->pending.empty() || ctx.stopping)
        return;
    emit(TraceEventType::BatchTimeout, svc->id, svc->pending.size());
    if (ctx.events.now() >= svc->pending.front() + svc->timeout_cycles) {
        // The request controller pads the input arrays with dummy
        // requests whose results are disposed (section 3.1).
        formPartialBatch(*svc);
    }
    // Queue drained between arm and fire, then refilled: the oldest
    // pending request is younger than the one the timer was armed for,
    // so its deadline is still in the future -- re-arm for it.
    armBatchTimeout(*svc);
    dispatcher->tryDispatch();
}

std::uint64_t
RequestDispatcher::pendingInferenceWork() const
{
    std::uint64_t n = 0;
    for (const auto &svc : ctx.services)
        n += svc->pending.size();
    for (const auto *b : ctx.batch_queue) {
        if (!b->done)
            n += b->real;
    }
    return n;
}

} // namespace sim
} // namespace equinox
