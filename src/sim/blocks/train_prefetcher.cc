#include "sim/blocks/train_prefetcher.hh"

#include <algorithm>

#include "sim/blocks/context.hh"
#include "sim/blocks/fault_unit.hh"
#include "sim/blocks/instruction_dispatcher.hh"
#include "stats/registry.hh"

namespace equinox
{
namespace sim
{

TrainPrefetcher::TrainPrefetcher(SimContext &context)
    : SimBlock(context, "train_prefetcher")
{
}

TrainPrefetcher::~TrainPrefetcher() = default;

void
TrainPrefetcher::connect(InstructionDispatcher *dispatcher_,
                         FaultUnit *faults_)
{
    dispatcher = dispatcher_;
    faults = faults_;
}

void
TrainPrefetcher::resetRun()
{
    prefetches_issued = 0;
    prefetch_bytes = 0;
}

void
TrainPrefetcher::registerStats(stats::StatRegistry &reg)
{
    reg.registerStat("train_prefetcher.prefetches_issued",
                     [this] {
                         return static_cast<double>(prefetches_issued);
                     },
                     "staging prefetch transfers issued (run total)");
    reg.registerStat("train_prefetcher.prefetch_bytes",
                     [this] {
                         return static_cast<double>(prefetch_bytes);
                     },
                     "bytes prefetched into staging (run total)");
    reg.registerStat("train_prefetcher.staged_bytes",
                     [this] {
                         return ctx.train ? ctx.train->staged_bytes : 0.0;
                     },
                     "operand bytes staged and unconsumed (live)");
}

ByteCount
TrainPrefetcher::chunkLimit(ByteCount capacity)
{
    // Degrade gracefully when the staging share is smaller than the
    // preferred burst: fetch in half-capacity chunks instead.
    return std::min<ByteCount>(kPrefetchChunk,
                               std::max<ByteCount>(capacity / 2, 512));
}

void
TrainPrefetcher::pump()
{
    auto &train = ctx.train;
    if (!train || ctx.stopping)
        return;
    const auto &steps = train->desc.iteration.steps;
    const bool banked = ctx.mem && ctx.mem->hasScratchpad();
    while (true) {
        ByteCount step_bytes = steps[train->prefetch_step].mmu.stream_bytes;
        if (train->prefetch_off >= step_bytes) {
            train->prefetch_step = (train->prefetch_step + 1) %
                                   steps.size();
            train->prefetch_off = 0;
            if (train->prefetch_step == 0) {
                // Pass wrapped: the next pass re-reads the same operand
                // addresses, the reuse a non-trivial hierarchy's LLC
                // can exploit (the passthrough path never reads this).
                train->mem_read_cursor = 0;
            }
            // Guard against a (synthetic) program with no streamed bytes.
            if (!train->streams_any)
                return;
            continue;
        }
        double occupied = train->staged_bytes + train->inflight_bytes;
        if (occupied + static_cast<double>(train->prefetch_chunk) >
            static_cast<double>(train->staging_capacity)) {
            return;
        }
        ByteCount chunk = std::min<ByteCount>(train->prefetch_chunk,
                                              step_bytes -
                                                  train->prefetch_off);
        if (banked) {
            // Ping-pong discipline: a fill may only target banks whose
            // previous contents fully drained. In-flight fills already
            // claim their share of the headroom. A chunk larger than
            // the remaining headroom is CLAMPED, not stalled: topping
            // off the fill bank is what completes it and hands it to
            // compute -- stalling whole-chunk-or-nothing can deadlock
            // when the residual headroom and the residual staged bytes
            // are both smaller than one unit of progress.
            ByteCount headroom = ctx.mem->scratchpadFillHeadroom();
            auto inflight =
                static_cast<ByteCount>(train->inflight_bytes);
            ByteCount avail = headroom > inflight ? headroom - inflight
                                                  : 0;
            if (avail == 0) {
                ctx.mem->noteScratchpadFillStall();
                return; // a drain or fill completion re-pumps
            }
            chunk = std::min(chunk, avail);
        }
        mem::Addr addr = train->mem_read_cursor;
        train->mem_read_cursor += chunk;
        train->prefetch_off += chunk;
        train->inflight_bytes += static_cast<double>(chunk);
        ++prefetches_issued;
        prefetch_bytes += chunk;
        dram::TransferFault f;
        Tick done = ctx.mem->read(ctx.events.now(), addr, chunk,
                                  dram::Priority::Low,
                                  faults->active() ? &f : nullptr);
        faults->syncFaults();
        if (f.uncorrectable) {
            // ECC flagged the staged operands as poisoned: when the
            // access would have landed, roll training back to the last
            // checkpoint instead of consuming garbage.
            ctx.events.schedule(done, [this] {
                faults->trainingRollback();
            });
            return;
        }
        std::uint64_t epoch = train->epoch;
        ctx.events.schedule(done, [this, chunk, epoch, banked] {
            if (epoch != ctx.train->epoch)
                return; // superseded by a rollback/reset
            ctx.train->inflight_bytes -= static_cast<double>(chunk);
            if (banked) {
                // Only completed banks become consumable; bytes landing
                // in a partially-filled bank stage later, when a
                // subsequent fill completes the bank.
                ByteCount newly = ctx.mem->noteScratchpadFill(chunk);
                ctx.train->staged_bytes += static_cast<double>(newly);
                if (newly > 0) {
                    emit(TraceEventType::MemStage, 0, newly,
                         static_cast<std::uint64_t>(
                             ctx.train->staged_bytes));
                }
            } else {
                ctx.train->staged_bytes += static_cast<double>(chunk);
            }
            pump();
            dispatcher->tryDispatch();
        });
    }
}

} // namespace sim
} // namespace equinox
