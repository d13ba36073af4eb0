#include "sim/blocks/instruction_dispatcher.hh"

#include <algorithm>

#include "sim/blocks/context.hh"
#include "sim/blocks/datapath.hh"
#include "sim/blocks/fault_unit.hh"
#include "sim/blocks/request_dispatcher.hh"
#include "sim/blocks/train_prefetcher.hh"
#include "stats/registry.hh"

namespace equinox
{
namespace sim
{

InstructionDispatcher::InstructionDispatcher(SimContext &context)
    : SimBlock(context, "instruction_dispatcher"),
      policy_(makeSchedulingPolicy(context.cfg))
{
    // Built once: constructing a std::function per scheduling round
    // showed up in profiles. The closure captures only `this`, which
    // outlives the view.
    view_.pending_work = [this] {
        return requests->pendingInferenceWork();
    };
}

InstructionDispatcher::~InstructionDispatcher() = default;

void
InstructionDispatcher::connect(Datapath *datapath_,
                               RequestDispatcher *requests_,
                               TrainPrefetcher *prefetcher_,
                               FaultUnit *faults_)
{
    datapath = datapath_;
    requests = requests_;
    prefetcher = prefetcher_;
    faults = faults_;
}

void
InstructionDispatcher::resetRun()
{
    prefer_training = false;
    policy_->reset();
    armed_wakes_.clear(); // the run's EventQueue was rebuilt
    rounds = 0;
    inf_issues = 0;
    train_issues = 0;
    chunks_coalesced = 0;
    // last_served_ctx intentionally persists (see header).
}

void
InstructionDispatcher::beginRun()
{
    // Granules interleave only with training installed, and fold only
    // where no fault plan acts between them and no trace sink records
    // each issue. The reference path (RunSpec::fast_forward = false)
    // folds nothing.
    coalesce = ctx.spec.fast_forward && ctx.train && !ctx.trace &&
               !faults->active();
}

void
InstructionDispatcher::registerStats(stats::StatRegistry &reg)
{
    reg.registerStat("instruction_dispatcher.rounds",
                     [this] { return static_cast<double>(rounds); },
                     "scheduling rounds entered (run total)");
    reg.registerStat("instruction_dispatcher.inference_issues",
                     [this] { return static_cast<double>(inf_issues); },
                     "inference chunks issued (run total)");
    reg.registerStat("instruction_dispatcher.training_issues",
                     [this] { return static_cast<double>(train_issues); },
                     "training chunks issued (run total)");
}

InfBatch *
InstructionDispatcher::firstReadyBatch()
{
    // FIFO within a hardware context; round-robin across contexts so a
    // long-running service (e.g. a 30 ms GRU batch) cannot head-of-line
    // block a sub-ms one in its dependence gaps.
    const Tick now = ctx.events.now();
    // Single installed service: the cross-context round-robin below
    // degenerates to "return the first candidate" whatever the cursor
    // holds (a matching cursor falls through to fallback = first
    // candidate; a stale non-matching one returns it directly), so skip
    // the full scan. This is the simulator's hottest loop (~40% of a
    // fig7 run before the exit).
    const bool single_ctx = ctx.services.size() <= 1;
    InfBatch *fallback = nullptr;
    for (auto *b : ctx.batch_queue) {
        if (b->done || b->in_flight || b->ready_at > now)
            continue;
        if (single_ctx)
            return b;
        if (b->svc->id != last_served_ctx)
            return b;
        if (!fallback)
            fallback = b;
    }
    return fallback;
}

bool
InstructionDispatcher::inferenceQueueLow() const
{
    // "Low queuing": at most one batch anywhere in the pipeline and no
    // full batch of raw requests waiting to form. Both facts are
    // maintained incrementally (see SimContext) -- this predicate runs
    // on every policy round and used to rescan every service.
    return ctx.batch_queue.size() <= 1 &&
           ctx.full_pending_services == 0;
}

bool
InstructionDispatcher::spikeDetected() const
{
    // The instruction controller compares the inference queue size
    // against an install-time threshold (section 3.2). O(1): the
    // unstarted-batch and full-pending-service counts are maintained
    // at their mutation sites instead of rescanned per round.
    return ctx.unstarted_batches >= ctx.cfg.spike_threshold_batches ||
           ctx.full_pending_services > 0;
}

bool
InstructionDispatcher::trainingReady() const
{
    const auto &train = ctx.train;
    if (!train || train->in_flight)
        return false;
    // Graceful degradation: during a fault storm training is shed first
    // so the machine's remaining capacity serves inference.
    if (faults->stormActive())
        return false;
    if (train->ready_at > ctx.events.now())
        return false;
    const auto &tw = train->desc.iteration.steps[train->step].mmu;
    Tick remaining = tw.occupancy - train->issued_in_step;
    if (remaining == 0)
        return false;
    if (tw.stream_bytes == 0)
        return true;
    const TrainStepRate &rate = train->step_rates[train->step];
    Tick granule = std::min(rate.granule, remaining);
    return train->staged_bytes >= static_cast<double>(granule) * rate.bpc;
}

void
InstructionDispatcher::tryDispatch()
{
    // A hung dispatcher issues nothing until the watchdog (or the
    // transient stall itself) clears the hang and re-invokes us.
    if (datapath->mmuBusy() || ctx.stopping || faults->mmuHung())
        return;
    ++rounds;
    Tick now = ctx.events.now();
    // Training readiness reads the staged bytes: land the deferred
    // fills first.
    if (ctx.train)
        prefetcher->settle();

    InfBatch *inf = firstReadyBatch();
    bool train_ok = trainingReady();

    // The policy sees readiness and the queue signals (pending work
    // stays a lazy, pure query) and vetoes service classes; the
    // round-robin and the MMU hand-off stay here.
    view_.now = now;
    view_.inference_ready = inf != nullptr;
    view_.training_ready = train_ok;
    view_.spike = spikeDetected();
    view_.queue_low = inferenceQueueLow();
    SchedDecision d = policy_->decide(view_);
    if (!d.allow_inference)
        inf = nullptr;
    if (!d.allow_training)
        train_ok = false;
    if (d.revisit_at != kTickMax && d.revisit_at > now)
        scheduleWake(d.revisit_at);

    if (inf && train_ok) {
        if (prefer_training) {
            prefer_training = false;
            ++train_issues;
            datapath->issueTrainingChunk();
        } else {
            prefer_training = true;
            ++inf_issues;
            datapath->issueInferenceChunk(inf, now);
        }
        return;
    }
    if (inf) {
        prefer_training = true;
        ++inf_issues;
        // The rounds at this batch's next granule boundaries take this
        // branch again while nothing they read changes: fold them.
        Tick until = now;
        if (coalesce && d.revisit_at == kTickMax)
            until = spanLimit(inf);
        datapath->issueInferenceChunk(inf, until);
        return;
    }
    if (train_ok) {
        prefer_training = false;
        policy_->onTrainingIssue(now);
        ++train_issues;
        datapath->issueTrainingChunk();
        return;
    }

    // Nothing ready: wake at the earliest dependence-ready tick. Staging
    // arrivals and request arrivals re-invoke tryDispatch themselves.
    Tick wake = kTickMax;
    for (auto *b : ctx.batch_queue) {
        if (!b->done && !b->in_flight)
            wake = std::min(wake, b->ready_at);
    }
    if (ctx.train && !ctx.train->in_flight && ctx.train->ready_at > now)
        wake = std::min(wake, ctx.train->ready_at);
    // The array is idle, so a fill's landing may start work again: the
    // deferred ones become events, before the tail-position wake below
    // decides whether it can dispatch inline.
    if (ctx.train)
        prefetcher->materialize();
    if (wake != kTickMax && wake > now)
        scheduleWake(wake, /*tail=*/true);
}

Tick
InstructionDispatcher::spanLimit(const InfBatch *inf) const
{
    // The first tick at which a round after issuing @p inf could
    // decide differently from this one (DESIGN.md section 2.7). Until
    // then the policy sees the same view but for now, so it vetoes
    // what it vetoed here and training stays unready or vetoed.
    const Tick now = ctx.events.now();
    // The first issue lowers the unstarted-batch count, which can flip
    // the spike signal the next round's policy reads.
    if (inf->first_issue == kTickMax)
        return now;
    // Another event, or the run's horizon.
    Tick until = ctx.events.inlineHorizon();
    // A deferred staging fill landing can make training ready; they
    // land in issue order.
    const auto &train = *ctx.train;
    if (!train.deferred_fills.empty())
        until = std::min(until, train.deferred_fills.front().done);
    // Training's dependence gap closing.
    if (train.ready_at > now)
        until = std::min(until, train.ready_at);
    // Another batch becoming ready: one ahead of @p inf in the queue
    // would be picked first, and across contexts the round-robin
    // prefers one of another context.
    const bool single_ctx = ctx.services.size() <= 1;
    for (const InfBatch *b : ctx.batch_queue) {
        if (b == inf || b->done || b->in_flight)
            continue;
        if (b->ready_at > now)
            until = std::min(until, b->ready_at);
        else if (!single_ctx)
            return now;
    }
    return until;
}

void
InstructionDispatcher::scheduleWake(Tick at, bool tail)
{
    // Exact-same-tick dedup only: a wake already armed at `at` makes a
    // second event there a guaranteed no-op (every state change pokes
    // tryDispatch directly, and decide() is pure), so skipping it
    // cannot change dispatch order, policy state, or the final now().
    // Never coalesce across DIFFERENT ticks -- that could change the
    // tick the run drains at and thus the Idle-cycle accounting.
    for (Tick t : armed_wakes_) {
        if (t == at)
            return;
    }
    armed_wakes_.push_back(at);
    auto wake = [this, at] {
        for (std::size_t i = 0; i < armed_wakes_.size(); ++i) {
            if (armed_wakes_[i] == at) {
                armed_wakes_.erase(armed_wakes_.begin() + i);
                break;
            }
        }
        tryDispatch();
    };
    // Only the nothing-ready wake at the end of tryDispatch() is in
    // tail position of its dispatch chain and thus safe to inline; the
    // policy's revisit_at wake is armed mid-round, before the issue.
    if (tail)
        ctx.events.scheduleFast(at, std::move(wake));
    else
        ctx.events.schedule(at, std::move(wake));
}

} // namespace sim
} // namespace equinox
