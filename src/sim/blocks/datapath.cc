#include "sim/blocks/datapath.hh"

#include <algorithm>
#include <cctype>
#include <string>

#include "common/logging.hh"
#include "common/units.hh"
#include "sim/blocks/context.hh"
#include "sim/blocks/fault_unit.hh"
#include "sim/blocks/instruction_dispatcher.hh"
#include "sim/blocks/train_prefetcher.hh"
#include "stats/registry.hh"

namespace equinox
{
namespace sim
{

namespace
{

/**
 * Synthesized address-space split for the memory hierarchy: training
 * operand reads stream from offset 0 (see TrainPrefetcher), store-backs
 * land in a disjoint region so the two streams never alias in the LLC.
 */
constexpr mem::Addr kTrainStoreBase = mem::Addr{1} << 40;

} // namespace

Datapath::Datapath(SimContext &context) : SimBlock(context, "datapath")
{
}

Datapath::~Datapath() = default;

void
Datapath::connect(InstructionDispatcher *dispatcher_,
                  TrainPrefetcher *prefetcher_, FaultUnit *faults_)
{
    dispatcher = dispatcher_;
    prefetcher = prefetcher_;
    faults = faults_;
}

void
Datapath::resetRun()
{
    mmu_busy = false;
    mmu_last_release = 0;
    inf_waiting_at_release = false;
    simd_free = 0;
}

void
Datapath::beginMeasurement()
{
    breakdown.reset();
    service_cycles.reset();
    inf_useful_ops = 0.0;
    train_useful_ops = 0.0;
    mmu_busy_measured = 0.0;
    simd_busy_measured = 0.0;
}

void
Datapath::registerStats(stats::StatRegistry &reg)
{
    reg.registerStat("datapath.mmu_busy_cycles",
                     [this] { return mmu_busy_measured; },
                     "MMU-occupied cycles (measured window)");
    reg.registerStat("datapath.simd_busy_cycles",
                     [this] { return simd_busy_measured; },
                     "SIMD-occupied cycles (measured window)");
    reg.registerStat("datapath.inference_useful_ops",
                     [this] { return inf_useful_ops; },
                     "useful inference MACs (measured window)");
    reg.registerStat("datapath.training_useful_ops",
                     [this] { return train_useful_ops; },
                     "useful training MACs (measured window)");
    // The Figure 8 cycle breakdown, one gauge per category.
    for (unsigned c = 0;
         c < static_cast<unsigned>(stats::CycleClass::NumClasses); ++c) {
        auto cls = static_cast<stats::CycleClass>(c);
        std::string label = stats::cycleClassName(cls);
        std::transform(label.begin(), label.end(), label.begin(),
                       [](unsigned char ch) { return std::tolower(ch); });
        reg.registerStat("datapath.cycles_" + label,
                         [this, cls] { return breakdown.get(cls); },
                         "Figure 8 MMU cycles (measured window)");
    }
}

void
Datapath::accountGap(Tick upto)
{
    if (!ctx.measuring)
        return;
    Tick from = std::max(mmu_last_release, ctx.measure_start);
    if (upto <= from)
        return;
    auto gap = static_cast<double>(upto - from);
    // Dependence stalls while inference work exists count as Other;
    // load-dependent emptiness (including training starved on DRAM)
    // counts as Idle, matching the Figure 8 categories.
    if (inf_waiting_at_release)
        breakdown.add(stats::CycleClass::Other, gap);
    else
        breakdown.add(stats::CycleClass::Idle, gap);
}

void
Datapath::chargeMmu(const isa::TileWork &tw, Tick cycles,
                    double real_frac)
{
    if (!ctx.measuring)
        return;
    auto c = static_cast<double>(cycles);
    mmu_busy_measured += c;
    double working = c * tw.geom_frac * real_frac;
    double dummy = c * tw.geom_frac * (1.0 - real_frac);
    breakdown.add(stats::CycleClass::Working, working);
    breakdown.add(stats::CycleClass::Dummy, dummy);
    breakdown.add(stats::CycleClass::Other, c - working - dummy);
}

Tick
Datapath::interleaveGranule(const isa::TileWork &tw)
{
    // One instruction's worth of cycles, but never under 64.
    return std::max<Tick>(tw.occupancy / std::max(1u, tw.instructions),
                          64);
}

void
Datapath::issueInferenceChunk(InfBatch *batch, Tick until)
{
    Tick now = ctx.events.now();
    accountGap(now);

    const auto &prog = batch->svc->desc.program;
    const auto &sb = prog.steps[batch->step];
    const double real_frac = batch->real_frac;

    if (batch->first_issue == kTickMax) {
        batch->first_issue = now;
        EQX_ASSERT(ctx.unstarted_batches > 0,
                   "unstarted-batch counter underflow");
        --ctx.unstarted_batches;
    }

    // With a training context installed, the instruction controller
    // interleaves the two services at instruction granularity
    // (section 3.2); issue one instruction's worth of cycles at a time
    // so training can slot in between. Without training, the whole step
    // issues at once (no interleaving opportunity exists).
    //
    // A granule whose end lies before @p until ends in a scheduling
    // round that would issue this batch's next granule: issue that one
    // too, with the same charges in the same order, and complete the
    // whole span with one event. Each granule after the first is one
    // folded round.
    Tick remaining = sb.mmu.occupancy - batch->issued_in_step;
    Tick granule = remaining;
    if (ctx.train)
        granule = batch->svc->chunk_granules[batch->step];
    Tick chunk = 0;
    std::uint64_t folded = 0;
    while (true) {
        Tick g = std::min(remaining - chunk, granule);
        chargeMmu(sb.mmu, g, real_frac);
        if (ctx.measuring) {
            inf_useful_ops += static_cast<double>(sb.mmu.real_ops) *
                              real_frac * static_cast<double>(g) /
                              static_cast<double>(sb.mmu.occupancy);
        }
        chunk += g;
        if (chunk == remaining || now + chunk >= until)
            break;
        ++folded;
    }
    dispatcher->noteInferenceServed(batch->svc->id, folded);
    emit(TraceEventType::InferenceChunkIssue, batch->svc->id, chunk,
         batch->step);

    mmu_busy = true;
    batch->in_flight = true;
    // Tail position of the whole dispatch chain (tryDispatch ->
    // issueInferenceChunk): when this completion is the analytically
    // next event, the fast-forward engine dispatches it inline instead
    // of round-tripping through the event heap (DESIGN.md 2.7).
    ctx.events.scheduleFastIn(chunk, [this, batch, chunk] {
        completeInferenceChunk(batch, chunk);
    });
}

void
Datapath::completeInferenceChunk(InfBatch *batch, Tick chunk)
{
    Tick now = ctx.events.now();
    mmu_busy = false;
    batch->in_flight = false;
    mmu_last_release = now;

    const auto &prog = batch->svc->desc.program;
    const auto &sb = prog.steps[batch->step];

    batch->issued_in_step += chunk;
    if (batch->issued_in_step < sb.mmu.occupancy) {
        // Step not finished: more instructions to issue immediately.
        inf_waiting_at_release = true;
        dispatcher->tryDispatch();
        return;
    }
    batch->issued_in_step = 0;

    // Results drain from the array, then the SIMD unit's epilogue
    // (activation functions, recurrence updates) serialises the next
    // step. The SIMD unit is shared, so back-to-back batches queue on it.
    Tick drained = now + sb.drain_cycles;
    Tick simd_start = std::max(drained, simd_free);
    Tick ready = simd_start + sb.simd_cycles;
    if (sb.simd_cycles > 0)
        simd_free = ready;
    if (ctx.measuring)
        simd_busy_measured += static_cast<double>(sb.simd_cycles);

    ++batch->step;
    if (batch->step < prog.steps.size()) {
        batch->ready_at = ready;
    } else {
        // Batch complete: stream results to the host and retire.
        ByteCount out = static_cast<ByteCount>(batch->real) *
                        batch->svc->desc.output_bytes_per_request;
        Tick finish = out ? faults->hostTransfer(ready, out,
                                                 dram::Priority::High)
                          : ready;
        if (ctx.measuring) {
            for (Tick a : batch->arrivals) {
                batch->svc->latency_cycles.record(
                    static_cast<double>(finish - a));
                // Arrival-to-retire span, one event per measured
                // request: lets a trace sink reproduce the latency
                // percentiles exactly (obs::LatencyProbe).
                emit(TraceEventType::RequestRetired, batch->svc->id,
                     finish - a, finish);
            }
            service_cycles.record(
                static_cast<double>(finish - batch->first_issue));
            ctx.host_bytes_measured += out;
            ctx.completed_measured += batch->real;
        }
        ctx.completed_total += batch->real;
        batch->done = true;
        bool queued = ctx.batch_queue.retire(batch);
        EQX_ASSERT(queued, "finished batch not queued");
        emit(TraceEventType::BatchRetired, batch->svc->id, batch->real,
             finish - batch->first_issue);
        // Last use of the batch: hand its storage back to the arena.
        // No re-acquire can happen inside this call chain -- batch
        // formation runs only from arrivals/timeouts, which the
        // fast-forward engine never inlines.
        ctx.batch_arena.release(batch);
        batch = nullptr;
        ctx.maybeFinishWarmup();
        if (ctx.measuring && ctx.inference_load &&
            ctx.completed_measured >= ctx.spec.measure_requests &&
            units::cyclesToSeconds(ctx.events.now() - ctx.measure_start,
                                   ctx.cfg.frequency_hz) >=
                ctx.spec.min_measure_s) {
            ctx.stopping = true;
        }
    }

    // Any queued batch means gaps are dependence stalls, not idle. (A
    // dependence-READY batch implies a queued one, so the old extra
    // firstReadyBatchWaiting() scan here was subsumed by this check --
    // dropping it halves the ready-scan count per retire.)
    inf_waiting_at_release = !ctx.batch_queue.empty();
    dispatcher->tryDispatch();
}

void
Datapath::issueTrainingChunk()
{
    Tick now = ctx.events.now();
    accountGap(now);

    auto &train = ctx.train;
    const auto &tw = train->desc.iteration.steps[train->step].mmu;
    Tick remaining = tw.occupancy - train->issued_in_step;
    Tick chunk = remaining;
    const double bpc = train->step_rates[train->step].bpc;
    if (tw.stream_bytes > 0) {
        chunk = std::min(chunk, static_cast<Tick>(train->staged_bytes /
                                                  bpc));
    }
    EQX_ASSERT(chunk > 0, "training issued with no issuable cycles");

    double bytes = static_cast<double>(chunk) * bpc;
    train->staged_bytes -= bytes;
    // With the banked scratchpad, the consumed bytes advance its drain
    // tail -- fully drained banks become refillable, which is what the
    // prefetcher's ping-pong headroom check below keys off.
    ctx.mem->noteScratchpadDrain(bytes);
    // Consuming staged operands frees staging space: restart the
    // prefetcher immediately so DRAM streams while the array computes.
    prefetcher->pump();

    chargeMmu(tw, chunk, 1.0);
    if (ctx.measuring) {
        train_useful_ops += static_cast<double>(tw.real_ops) *
                            static_cast<double>(chunk) /
                            static_cast<double>(tw.occupancy);
    }
    emit(TraceEventType::TrainChunkIssue, 0, chunk, train->step);

    mmu_busy = true;
    train->in_flight = true;
    std::uint64_t epoch = train->epoch;
    // Tail position (see issueInferenceChunk): eligible for inline
    // fast-forward dispatch. The epoch guard already tolerates the
    // completion firing in any legal order relative to rollbacks.
    ctx.events.scheduleFastIn(chunk, [this, chunk, epoch] {
        if (epoch != ctx.train->epoch) {
            // A rollback/reset invalidated this chunk mid-flight: free
            // the array but do not advance the (replayed) iteration.
            mmu_busy = false;
            ctx.train->in_flight = false;
            mmu_last_release = ctx.events.now();
            inf_waiting_at_release = !ctx.batch_queue.empty();
            dispatcher->tryDispatch();
            return;
        }
        completeTrainingChunk(chunk);
    });
}

void
Datapath::completeTrainingChunk(Tick chunk)
{
    Tick now = ctx.events.now();
    auto &train = ctx.train;
    mmu_busy = false;
    train->in_flight = false;
    mmu_last_release = now;
    inf_waiting_at_release = !ctx.batch_queue.empty();

    train->issued_in_step += chunk;
    const auto &tw = train->desc.iteration.steps[train->step].mmu;
    if (train->issued_in_step >= tw.occupancy)
        advanceTrainingStep();

    // The issue-time pump() already filled staging as far as it could,
    // and landings since only moved bytes, so on the passthrough path
    // without faults this pump issues nothing (it settles deferred
    // fills). It stays for two cases: with the banked scratchpad it
    // counts a fill stall when the ping-pong headroom is spent
    // (mem.sp_fill_stalls), and after an ECC-poisoned fill cut the
    // issue-time pump short it refills the room that pump left when
    // no earlier fill is in flight to re-pump on landing.
    prefetcher->pump();
    dispatcher->tryDispatch();
}

void
Datapath::advanceTrainingStep()
{
    Tick now = ctx.events.now();
    auto &train = ctx.train;
    const auto &prog = train->desc.iteration;
    const auto &sb = prog.steps[train->step];

    // Write results (activations for the backward pass, gradient
    // accumulations) back to DRAM at best-effort priority, through the
    // memory hierarchy's write path (write-combining when enabled;
    // verbatim link transfer in passthrough).
    if (sb.store_bytes > 0) {
        mem::Addr addr = kTrainStoreBase + train->mem_store_cursor;
        train->mem_store_cursor += sb.store_bytes;
        dram::TransferFault f;
        ctx.mem->write(now, addr, sb.store_bytes, dram::Priority::Low,
                       faults->active() ? &f : nullptr);
        faults->syncFaults();
        if (f.uncorrectable) {
            // The written-back gradients are poisoned; finish this
            // event's bookkeeping, then roll back to the checkpoint.
            ctx.events.schedule(now, [this] {
                faults->trainingRollback();
            });
        }
    }

    Tick drained = now + sb.drain_cycles;
    Tick simd_start = std::max(drained, simd_free);
    Tick ready = simd_start + sb.simd_cycles;
    if (sb.simd_cycles > 0)
        simd_free = ready;
    if (ctx.measuring)
        simd_busy_measured += static_cast<double>(sb.simd_cycles);
    train->ready_at = ready;

    train->issued_in_step = 0;
    ++train->step;
    if (train->step >= prog.steps.size()) {
        train->step = 0;
        // Next iteration overwrites the same store-back region
        // (activations and gradient accumulators are per-iteration
        // scratch); the cursor rewind is what makes that reuse visible
        // to a non-trivial hierarchy.
        train->mem_store_cursor = 0;
        ++train->iterations;
        dispatcher->policy().onTrainingIteration();
        emit(TraceEventType::TrainIteration, 0, train->iterations);
        // Parameter-server sync: gradients out, fresh model in, over the
        // host interface; double-buffered so it overlaps the next
        // iteration's compute.
        if (train->desc.sync_bytes_per_iteration > 0) {
            faults->hostTransfer(now, train->desc.sync_bytes_per_iteration,
                                 dram::Priority::Low);
            if (ctx.measuring) {
                ctx.host_bytes_measured +=
                    train->desc.sync_bytes_per_iteration;
            }
        }
        faults->maybeWriteCheckpoint();
        if (ctx.measuring) {
            ++ctx.train_iterations_measured;
            if (!ctx.inference_load &&
                ctx.train_iterations_measured >=
                    ctx.spec.measure_iterations) {
                ctx.stopping = true;
            }
        } else if (!ctx.inference_load) {
            // Training-only runs: measure from the second iteration.
            ctx.resetMeasurement();
        }
    }
}

} // namespace sim
} // namespace equinox
