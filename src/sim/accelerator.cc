#include "sim/accelerator.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "common/units.hh"
#include "sim/blocks/datapath.hh"
#include "sim/blocks/fault_unit.hh"
#include "sim/blocks/instruction_dispatcher.hh"
#include "sim/blocks/request_dispatcher.hh"
#include "sim/blocks/train_prefetcher.hh"
#include "stats/registry.hh"

namespace equinox
{
namespace sim
{

Accelerator::Accelerator(AcceleratorConfig config)
    : cfg(std::move(config)),
      act_buffer("activation", cfg.act_buffer_bytes, 16, 1, 2),
      weight_buffer("weight", cfg.weight_buffer_bytes, cfg.m, 1, 1),
      instr_buffer("instruction", cfg.instr_buffer_bytes, 1, 1, 1),
      simd_rf("simd-rf", cfg.simd_rf_bytes, 4, 2, 2),
      ctx(cfg)
{
    // Bad geometry/clock here is user configuration, not a simulator
    // bug: report every problem with an actionable message and exit.
    auto errors = cfg.validate();
    if (!errors.empty()) {
        EQX_FATAL("invalid accelerator configuration '", cfg.name,
                  "':\n", formatConfigErrors(errors));
    }

    // Build the blocks, then wire their control ports. Data flows
    // through the SimContext (services, train state, the BatchQueue
    // port); control flows through these explicit connections.
    requests = std::make_unique<RequestDispatcher>(ctx);
    dispatcher = std::make_unique<InstructionDispatcher>(ctx);
    datapath = std::make_unique<Datapath>(ctx);
    prefetcher = std::make_unique<TrainPrefetcher>(ctx);
    faults = std::make_unique<FaultUnit>(ctx);

    requests->connect(dispatcher.get(), faults.get());
    dispatcher->connect(datapath.get(), requests.get(), prefetcher.get(),
                        faults.get());
    datapath->connect(dispatcher.get(), prefetcher.get(), faults.get());
    prefetcher->connect(dispatcher.get(), faults.get());
    faults->connect(dispatcher.get(), prefetcher.get());

    ctx.blocks = {requests.get(), dispatcher.get(), datapath.get(),
                  prefetcher.get(), faults.get()};
}

Accelerator::~Accelerator() = default;

void
Accelerator::setTraceSink(TraceSink *sink)
{
    ctx.trace = sink;
}

void
Accelerator::registerStats(stats::StatRegistry &reg)
{
    for (auto *b : ctx.blocks)
        b->registerStats(reg);
    // Batch-arena gauges are per-accelerator (deterministic for a given
    // run sequence).
    reg.registerStat("arena.batch_objects",
                     [this] {
                         return static_cast<double>(
                             ctx.batch_arena.totalObjects());
                     },
                     "InfBatch objects ever constructed (pool lifetime)");
    reg.registerStat("arena.batch_acquires",
                     [this] {
                         return static_cast<double>(
                             ctx.batch_arena.acquires());
                     },
                     "batch-arena acquires (pool lifetime)");
    reg.registerStat("arena.batch_reuses",
                     [this] {
                         return static_cast<double>(
                             ctx.batch_arena.reuses());
                     },
                     "acquires served from the freelist (pool lifetime)");
    reg.registerStat("arena.batch_high_water",
                     [this] {
                         return static_cast<double>(
                             ctx.batch_arena.highWater());
                     },
                     "most batches simultaneously live (pool lifetime)");

    // Memory-hierarchy gauges exist only for non-trivial hierarchies:
    // the passthrough configuration registers nothing, so the
    // MetricsSnapshot schema (and every digest/identity test built on
    // it) is unchanged unless a component is explicitly enabled.
    if (!cfg.mem.passthrough()) {
        auto mem_gauge = [this](auto field) {
            return [this, field]() -> double {
                return ctx.mem ? static_cast<double>(
                                     field(ctx.mem->stats()))
                               : 0.0;
            };
        };
        reg.registerStat("mem.llc_hits",
                         mem_gauge([](const mem::MemStats &s) {
                             return s.llc_hits;
                         }),
                         "LLC demand hits (run total)");
        reg.registerStat("mem.llc_misses",
                         mem_gauge([](const mem::MemStats &s) {
                             return s.llc_misses;
                         }),
                         "LLC demand misses (run total)");
        reg.registerStat("mem.llc_evictions",
                         mem_gauge([](const mem::MemStats &s) {
                             return s.llc_evictions;
                         }),
                         "LLC lines evicted (run total)");
        reg.registerStat("mem.hit_rate",
                         [this] {
                             return ctx.mem ? ctx.mem->stats().hitRate()
                                            : 0.0;
                         },
                         "LLC demand hit rate (run total)");
        reg.registerStat("mem.prefetch_issued",
                         mem_gauge([](const mem::MemStats &s) {
                             return s.prefetch_issued;
                         }),
                         "prefetch fills issued to DRAM (run total)");
        reg.registerStat("mem.prefetch_useful",
                         mem_gauge([](const mem::MemStats &s) {
                             return s.prefetch_useful;
                         }),
                         "prefetched lines hit by demand (run total)");
        reg.registerStat("mem.prefetch_accuracy",
                         [this] {
                             return ctx.mem
                                        ? ctx.mem->stats()
                                              .prefetchAccuracy()
                                        : 0.0;
                         },
                         "useful / issued prefetches (run total)");
        reg.registerStat("mem.sp_fill_stalls",
                         mem_gauge([](const mem::MemStats &s) {
                             return s.sp_fill_stalls;
                         }),
                         "scratchpad fills stalled on ping-pong "
                         "headroom (run total)");
        reg.registerStat("mem.sp_bank_switches",
                         mem_gauge([](const mem::MemStats &s) {
                             return s.sp_bank_switches;
                         }),
                         "scratchpad fill-bank rotations (run total)");
        reg.registerStat("mem.sp_occupancy_high_water",
                         mem_gauge([](const mem::MemStats &s) {
                             return s.sp_high_water;
                         }),
                         "most scratchpad bytes simultaneously live");
        reg.registerStat("mem.wb_combines",
                         mem_gauge([](const mem::MemStats &s) {
                             return s.wb_combines;
                         }),
                         "stores merged into open combining entries");
        reg.registerStat("mem.wb_occupancy",
                         mem_gauge([](const mem::MemStats &s) {
                             return s.wb_occupancy;
                         }),
                         "bytes parked in the write-combining buffer");
        reg.registerStat("mem.dram_transfers",
                         mem_gauge([](const mem::MemStats &s) {
                             return s.dram_transfers;
                         }),
                         "transfers the hierarchy issued to the DRAM "
                         "link (run total)");
    }
}

ContextId
Accelerator::installInference(InferenceServiceDesc desc)
{
    EQX_ASSERT(!desc.program.steps.empty(), "empty inference program");
    auto svc = std::make_unique<InfService>();
    svc->id = static_cast<ContextId>(ctx.services.size());
    if (!weight_buffer.allocate(svc->id, desc.weight_footprint)) {
        EQX_FATAL("service ", desc.model_name, " weights (",
                  desc.weight_footprint, " B) exceed the weight buffer (",
                  weight_buffer.available(), " B free)");
    }
    if (!act_buffer.allocate(svc->id, desc.act_footprint)) {
        EQX_FATAL("service ", desc.model_name, " activations (",
                  desc.act_footprint, " B) exceed the activation buffer");
    }
    svc->timeout_cycles = units::secondsToCycles(
        desc.service_time_s * cfg.batch_timeout_mult, cfg.frequency_hz);
    for (const auto &sb : desc.program.steps)
        svc->chunk_granules.push_back(Datapath::interleaveGranule(sb.mmu));
    svc->desc = std::move(desc);
    ctx.services.push_back(std::move(svc));
    return ctx.services.back()->id;
}

namespace
{

/**
 * Fill @p train's install-time constants from its program and staging
 * capacity. The dispatcher, datapath and prefetcher read these instead
 * of recomputing them per call, so each must stay the result of the
 * same IEEE operations on the same fields, or the golden digests move.
 */
void
deriveTrainingConstants(TrainState &train)
{
    for (const auto &sb : train.desc.iteration.steps) {
        const auto &tw = sb.mmu;
        TrainStepRate rate;
        if (tw.stream_bytes > 0 && tw.occupancy > 0) {
            rate.bpc = static_cast<double>(tw.stream_bytes) /
                       static_cast<double>(tw.occupancy);
        }
        rate.granule = std::max<Tick>(
            1, tw.occupancy / std::max(1u, tw.instructions));
        train.step_rates.push_back(rate);
        train.streams_any = train.streams_any || tw.stream_bytes > 0;
    }
    train.prefetch_chunk =
        TrainPrefetcher::chunkLimit(train.staging_capacity);
}

} // namespace

ContextId
Accelerator::installTraining(TrainingServiceDesc desc)
{
    EQX_ASSERT(!ctx.train, "only one training context is supported");
    EQX_ASSERT(!desc.iteration.steps.empty(), "empty training program");
    ctx.train = std::make_unique<TrainState>();
    // With the banked scratchpad enabled, its geometry IS the staging
    // buffer: capacity comes from banks * bank_bytes instead of the
    // flat staging share, and the prefetcher follows the ping-pong
    // fill discipline instead of the occupancy throttle alone.
    ctx.train->staging_capacity = cfg.mem.scratchpad.enabled
                                      ? cfg.mem.scratchpad.totalBytes()
                                      : cfg.stagingBytes();
    ctx.train->desc = std::move(desc);
    deriveTrainingConstants(*ctx.train);
    // Room for a full staging share of whole-chunk fills in flight, so
    // runs do not grow the buffer: grown mid-run, it lands above the
    // run's large allocations and can keep glibc from trimming them
    // (perfbench fleet_route's peak RSS read 2.2 MB higher).
    ctx.train->deferred_fills.reserve(
        ctx.train->staging_capacity / ctx.train->prefetch_chunk + 1);
    // Training's staging buffers take <2% of on-chip SRAM (section 2.2):
    // carved out of the activation buffer's remaining space.
    ContextId id = 1000;
    if (!act_buffer.allocate(id, ctx.train->staging_capacity)) {
        EQX_FATAL("training staging (", ctx.train->staging_capacity,
                  " B) does not fit the activation buffer");
    }
    return id;
}

double
Accelerator::maxInferenceOpRate(ContextId id) const
{
    EQX_ASSERT(id < ctx.services.size(), "no such inference service");
    return ctx.services[id]->desc.program.saturationOpRate(
        cfg.frequency_hz);
}

double
Accelerator::maxRequestRate(ContextId id) const
{
    const auto &prog = ctx.services[id]->desc.program;
    return maxInferenceOpRate(id) / prog.opsPerRequest();
}

SimResult
Accelerator::run(const RunSpec &run_spec)
{
    EQX_ASSERT(!ctx.services.empty() || ctx.train,
               "run() needs at least one installed service");
    ctx.spec = run_spec;

    // Reset all dynamic state. The resetRun() contract forbids blocks
    // from scheduling events or drawing randomness here, so the reset
    // order cannot affect simulated behaviour; the fault unit's
    // beginRun() builds the injector and link hooks the other blocks'
    // transfers consult.
    ctx.events = EventQueue{};
    // Pre-size the event heap so the run's steady state never
    // reallocates mid-dispatch: the hint starts at a cold-start floor
    // and tracks the worst observed high-water mark across runs.
    ctx.events.reserve(event_reserve_);
    ctx.hbm = std::make_unique<dram::HbmModel>(cfg.frequency_hz, cfg.dram);
    ctx.host = std::make_unique<dram::HostLink>(cfg.frequency_hz,
                                                cfg.host);
    // The hierarchy fronts the HBM link it was built against, so it is
    // rebuilt whenever the link is. Passthrough (the default) forwards
    // every access verbatim -- byte-identical to calling the link.
    ctx.mem = std::make_unique<mem::MemoryHierarchy>(cfg.mem,
                                                     ctx.hbm.get());
    for (auto *b : ctx.blocks)
        b->resetRun();
    faults->beginRun();
    Tick max_ticks = units::secondsToCycles(ctx.spec.max_sim_s,
                                            cfg.frequency_hz);
    prefetcher->beginRun(max_ticks);
    ctx.stopping = false;
    ctx.measuring = false;
    ctx.measure_start = 0;
    ctx.completed_total = 0;
    ctx.completed_measured = 0;
    ctx.resetMeasurement();
    ctx.measuring = false; // warmup first

    // Schedule the first arrivals (per-service arrival streams
    // re-seeded from the spec, or service 0's tick trace).
    requests->beginRun();

    if (ctx.train) {
        auto &train = *ctx.train;
        train.step = 0;
        train.issued_in_step = 0;
        train.ready_at = 0;
        train.in_flight = false;
        train.staged_bytes = 0.0;
        train.inflight_bytes = 0.0;
        train.prefetch_step = 0;
        train.prefetch_off = 0;
        train.deferred_fills.clear();
        train.mem_read_cursor = 0;
        train.mem_store_cursor = 0;
        train.iterations = 0;
        train.committed_iterations = 0;
        train.epoch = 0;
        prefetcher->pump();
        // Nothing has started yet, so a landing may start work: the
        // first fills are events.
        prefetcher->materialize();
    }

    if (ctx.inference_load && ctx.spec.warmup_requests == 0)
        ctx.resetMeasurement();

    // The fast-forward ceiling mirrors the loop condition below: an
    // event past max_ticks is still dispatched exactly once (the loop
    // checks now() before the NEXT runOne), so inline dispatch may run
    // up to and including max_ticks but never beyond it.
    ctx.events.setFastForward(run_spec.fast_forward, max_ticks);
    faults->scheduleHangs(max_ticks);
    while (!ctx.stopping && !ctx.events.empty() &&
           ctx.events.now() <= max_ticks)
        ctx.events.runOne();
    // Fills that landed by the last dispatch stage their bytes, as
    // their events would have, so the staged-bytes gauge reads the same.
    if (ctx.train)
        prefetcher->settle();
    addGlobalDispatchedEvents(ctx.events.dispatched());
    event_reserve_ = std::max(event_reserve_, ctx.events.highWater());

    faults->finalizeDowntime();
    if (!datapath->mmuBusy())
        datapath->accountGap(ctx.events.now());

    // Assemble the result over the measured window.
    SimResult res;
    Tick elapsed_ticks = ctx.events.now() > ctx.measure_start
                             ? ctx.events.now() - ctx.measure_start
                             : 1;
    if (!ctx.measuring) {
        EQX_WARN("run ended before the measurement window opened (",
                 ctx.completed_total, " requests completed)");
        elapsed_ticks = std::max<Tick>(ctx.events.now(), 1);
    }
    double elapsed_s = units::cyclesToSeconds(elapsed_ticks,
                                              cfg.frequency_hz);
    double inv_f = 1.0 / cfg.frequency_hz;

    res.sim_seconds = elapsed_s;
    res.completed_requests = ctx.completed_measured;
    res.offered_rate_per_s = ctx.spec.arrival_rate_per_s;
    if (!ctx.spec.arrival_rates.empty()) {
        res.offered_rate_per_s = 0.0;
        for (double r : ctx.spec.arrival_rates)
            res.offered_rate_per_s += r;
    }
    res.inference_throughput_ops = datapath->infUsefulOps() / elapsed_s;
    res.training_throughput_ops = datapath->trainUsefulOps() / elapsed_s;
    for (const auto &svc : ctx.services) {
        SimResult::ServiceStats st;
        st.ctx = svc->id;
        st.model_name = svc->desc.model_name;
        st.completed = svc->latency_cycles.count();
        st.mean_latency_s = svc->latency_cycles.mean() * inv_f;
        st.p99_latency_s = svc->latency_cycles.percentile(0.99) * inv_f;
        res.per_service.push_back(st);
    }
    // The run's latency set is the union of the per-service sets, in
    // service order. Samples are whole cycle counts, so their sum --
    // and the mean -- is exact in any order.
    stats::LatencyTracker latency;
    if (ctx.services.size() == 1) {
        latency = std::move(ctx.services.front()->latency_cycles);
    } else {
        for (const auto &svc : ctx.services)
            latency.merge(svc->latency_cycles);
    }
    res.mean_latency_s = latency.mean() * inv_f;
    res.p50_latency_s = latency.percentile(0.5) * inv_f;
    res.p99_latency_s = latency.percentile(0.99) * inv_f;
    res.max_latency_s = latency.max() * inv_f;
    res.mean_service_s = datapath->serviceCycles().mean() * inv_f;
    res.mmu_breakdown = datapath->breakdownStats();
    res.batches_formed = requests->batchesFormed();
    res.batches_incomplete = requests->batchesIncomplete();
    res.avg_batch_fill =
        res.batches_formed
            ? requests->batchFillSum() /
                  static_cast<double>(res.batches_formed)
            : 0.0;
    res.dram_utilization = ctx.hbm->utilization(ctx.events.now());
    res.dram_train_bytes = ctx.hbm->bytesMoved(dram::Priority::Low) -
                           ctx.dram_lp_snapshot;
    res.host_bytes = ctx.host_bytes_measured;
    res.training_iterations = ctx.train_iterations_measured;
    res.mmu_busy_cycles = datapath->mmuBusyMeasured();
    res.simd_busy_cycles = datapath->simdBusyMeasured();
    res.faults = faults->stats();
    res.availability = faults->stats().availability(elapsed_ticks);
    res.admitted_requests = requests->requestsAdmitted();
    res.retired_requests = ctx.completed_total;
    res.inflight_requests = requests->pendingInferenceWork();
    // Request conservation: every admitted request retired or is still
    // pending at the horizon.
    EQX_ASSERT(res.admitted_requests ==
                   res.retired_requests + res.inflight_requests,
               "admitted ", res.admitted_requests, " != retired ",
               res.retired_requests, " + inflight ",
               res.inflight_requests);
    res.latency_cycles = std::move(latency);
    if (ctx.train) {
        res.committed_training_iterations =
            faults->active() &&
                    ctx.spec.faults.checkpoint.interval_iterations > 0
                ? ctx.train->committed_iterations
                : ctx.train->iterations;
    }
    if (faults->active())
        res.fault_trace = faults->trace();
    res.events_dispatched = ctx.events.dispatched();
    res.events_inlined = ctx.events.inlined();
    res.fills_deferred = prefetcher->fillsDeferred();
    res.mem = ctx.mem->stats();
    return res;
}

} // namespace sim
} // namespace equinox
