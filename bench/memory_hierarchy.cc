/**
 * @file
 * Memory-hierarchy characterisation bench: drives the pluggable
 * mem::MemoryHierarchy (DESIGN.md section 2.9) through its distinct
 * operating regimes and records the figures in
 * BENCH_memory_hierarchy.json.
 *
 * Three sections:
 *
 *  1. Hit-rate regimes (direct drive, prefetch off): the same LLC
 *     geometry is driven with a cache-resident working set and with a
 *     streaming sweep far larger than the cache. Acceptance, asserted
 *     here so `scripts/check.sh --bench-smoke` gates it: the resident
 *     regime hits >= 90% while the streaming regime hits <= 30%.
 *
 *  2. Prefetcher sweep (direct drive): the streaming sweep again, once
 *     per PrefetchKind. Next-line and DCPT must convert the miss
 *     stream into hits that the no-prefetch run cannot see.
 *
 *  3. End-to-end scratchpad depths: full mixed inference+training
 *     simulations (the tiny RNN scenario of the digest suites) with a
 *     non-trivial hierarchy enabled, swept over ping-pong depths x
 *     prefetchers. These runs drive the real event kernel, so the
 *     BENCH record's events/s figure of merit tracks the hierarchy's
 *     simulation-rate cost run over run.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/units.hh"
#include "dram/link.hh"
#include "mem/memory_hierarchy.hh"

using namespace equinox;

namespace
{

/** The shared LLC geometry every direct-drive regime runs on. */
mem::MemoryHierarchyConfig
llcGeometry(mem::PrefetchKind kind)
{
    mem::MemoryHierarchyConfig cfg;
    cfg.llc.enabled = true;
    cfg.llc.size_bytes = units::KiB(256);
    cfg.llc.line_bytes = 256;
    cfg.llc.ways = 8;
    cfg.llc.replacement = mem::Replacement::Lru;
    cfg.prefetch.kind = kind;
    cfg.prefetch.degree = 4;
    return cfg;
}

/** What one direct-drive regime measured. */
struct RegimeResult
{
    double hit_rate = 0.0;
    double prefetch_accuracy = 0.0;
    std::uint64_t accesses = 0;
    std::uint64_t dram_transfers = 0;
    std::uint64_t prefetch_issued = 0;
};

/**
 * Drive @p accesses line-sized demand reads through a fresh hierarchy
 * on @p cfg. A resident run first warms the cache with one sequential
 * pass over the working set (the warm-up accesses are excluded from
 * the measured window); a streaming run never revisits an address, so
 * there is nothing to warm. Counters come from the stats snapshot
 * delta, so the measurement window is exact.
 */
RegimeResult
driveReads(const mem::MemoryHierarchyConfig &cfg, ByteCount working_set,
           std::size_t accesses, bool resident)
{
    dram::PriorityLink link({1e11, 100e-9, 8}, units::MHz(940));
    mem::MemoryHierarchy mh(cfg, &link);
    const ByteCount req = cfg.llc.line_bytes;
    Tick now = 0;
    mem::Addr addr = 0;
    auto step = [&] {
        mh.read(now, addr, req, dram::Priority::High, nullptr);
        addr += req;
        if (resident && addr >= working_set)
            addr = 0;
        now += 16; // a steady demand cadence; timing is not measured
    };
    if (resident) {
        for (ByteCount warmed = 0; warmed < working_set; warmed += req)
            step();
    }
    mem::MemStats before = mh.stats();
    for (std::size_t i = 0; i < accesses; ++i)
        step();
    mem::MemStats after = mh.stats();

    RegimeResult r;
    std::uint64_t hits = after.llc_hits - before.llc_hits;
    std::uint64_t misses = after.llc_misses - before.llc_misses;
    r.accesses = hits + misses;
    r.hit_rate = r.accesses
                     ? static_cast<double>(hits) /
                           static_cast<double>(r.accesses)
                     : 0.0;
    r.dram_transfers = after.dram_transfers - before.dram_transfers;
    r.prefetch_issued = after.prefetch_issued - before.prefetch_issued;
    r.prefetch_accuracy = after.prefetchAccuracy();
    return r;
}

/**
 * Passes of each measurement. The A/B gate (scripts/ab.py) times the
 * whole run, and one pass (about 0.15 s) leaves its run-to-run spread
 * above the gate's 10% noise limit. Every pass is deterministic, so
 * the reported figures are the same as one pass's.
 */
constexpr int kPasses = 8;

/** @p measure run kPasses times; the last pass's result. */
template <typename Fn>
auto
repeated(Fn measure)
{
    for (int pass = 1; pass < kPasses; ++pass)
        (void)measure();
    return measure();
}

/** The tiny RNN of the digest suites: small enough to sweep densely. */
workload::DnnModel
tinyRnn()
{
    workload::DnnModel model;
    model.name = "tiny";
    model.kind = workload::DnnModel::Kind::Rnn;
    model.rnn.hidden = 64;
    model.rnn.steps = 4;
    model.rnn.gate_groups = {2};
    model.rnn.simd_passes = 4.0;
    return model;
}

/** The small test design with a full hierarchy at @p banks depth. */
sim::AcceleratorConfig
hierarchyConfig(unsigned banks, mem::PrefetchKind kind)
{
    sim::AcceleratorConfig cfg;
    cfg.name = "mem_bench";
    cfg.n = 8;
    cfg.m = 2;
    cfg.w = 2;
    cfg.frequency_hz = units::MHz(100);
    cfg.simd_lanes = 256;
    cfg.mem.scratchpad.enabled = true;
    cfg.mem.scratchpad.banks = banks;
    cfg.mem.scratchpad.bank_bytes = units::KiB(32);
    cfg.mem.llc.enabled = true;
    cfg.mem.llc.size_bytes = units::KiB(256);
    cfg.mem.llc.line_bytes = 256;
    cfg.mem.llc.ways = 8;
    cfg.mem.write_buffer.enabled = true;
    cfg.mem.write_buffer.entries = 8;
    cfg.mem.write_buffer.entry_bytes = units::KiB(4);
    cfg.mem.prefetch.kind = kind;
    cfg.mem.prefetch.degree = 2;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuietLogging(true);
    bench::Harness harness(argc, argv, "memory_hierarchy",
                           "memory-hierarchy characterisation",
                           "LLC hit-rate regimes, prefetcher sweep, and "
                           "end-to-end scratchpad ping-pong depths");

    // -- 1. Hit-rate regimes on the same geometry, prefetch off --------
    bench::section("hit-rate regimes (prefetch off, same geometry)");
    const std::size_t kAccesses = 200000;
    auto base = llcGeometry(mem::PrefetchKind::None);
    // Cache-resident: half the LLC, so even imperfect replacement
    // keeps the set resident after one warm-up pass.
    RegimeResult resident = repeated(
        [&] { return driveReads(base, units::KiB(128), kAccesses, true); });
    // Streaming: a sweep 256x the LLC with no reuse at all.
    RegimeResult streaming = repeated(
        [&] { return driveReads(base, units::MiB(64), kAccesses, false); });
    std::printf("cache-resident (128 KiB set in a 256 KiB LLC): "
                "%.1f%% hits, %llu DRAM transfers\n",
                resident.hit_rate * 100.0,
                static_cast<unsigned long long>(resident.dram_transfers));
    std::printf("streaming      (64 MiB sweep, no reuse):       "
                "%.1f%% hits, %llu DRAM transfers\n",
                streaming.hit_rate * 100.0,
                static_cast<unsigned long long>(streaming.dram_transfers));
    EQX_ASSERT(resident.hit_rate >= 0.90,
               "cache-resident regime missed its acceptance: ",
               resident.hit_rate * 100.0, "% hits (need >= 90%)");
    EQX_ASSERT(streaming.hit_rate <= 0.30,
               "streaming regime missed its acceptance: ",
               streaming.hit_rate * 100.0, "% hits (need <= 30%)");
    harness.note("regime_resident_hit_rate", resident.hit_rate);
    harness.note("regime_streaming_hit_rate", streaming.hit_rate);

    // -- 2. Prefetchers against the streaming sweep ---------------------
    bench::section("prefetchers on the streaming sweep");
    struct Kind
    {
        mem::PrefetchKind kind;
        const char *name;
    };
    const std::vector<Kind> kinds = {
        {mem::PrefetchKind::None, "none"},
        {mem::PrefetchKind::NextLine, "next_line"},
        {mem::PrefetchKind::Dcpt, "dcpt"},
    };
    stats::Table pf_table({"prefetcher", "hit rate", "accuracy",
                           "prefetches", "DRAM transfers"});
    double next_line_rate = 0.0;
    for (const auto &k : kinds) {
        RegimeResult r = repeated([&] {
            return driveReads(llcGeometry(k.kind), units::MiB(64),
                              kAccesses, false);
        });
        pf_table.addRow(
            {k.name, bench::num(r.hit_rate * 100.0, 1) + "%",
             bench::num(r.prefetch_accuracy * 100.0, 1) + "%",
             std::to_string(r.prefetch_issued),
             std::to_string(r.dram_transfers)});
        if (k.kind == mem::PrefetchKind::NextLine)
            next_line_rate = r.hit_rate;
    }
    pf_table.print(std::cout);
    EQX_ASSERT(next_line_rate > streaming.hit_rate + 0.30,
               "next-line prefetch failed to lift the streaming hit "
               "rate (", next_line_rate * 100.0, "% vs ",
               streaming.hit_rate * 100.0, "% without)");
    harness.note("streaming_next_line_hit_rate", next_line_rate);

    // -- 3. End-to-end scratchpad depths x prefetchers ------------------
    bench::section("end-to-end: scratchpad depths x prefetchers");
    core::ExperimentOptions opts;
    opts.model = tinyRnn();
    opts.train_model = tinyRnn();
    opts.train_batch = 16;
    opts.warmup_requests = 50;
    opts.measure_requests = 2500;
    opts.seed = 17;
    opts.jobs = harness.jobs();
    const std::vector<double> loads = {0.35, 0.7};
    stats::Table e2e({"banks", "prefetcher", "load", "LLC hits",
                      "fill stalls", "train iters", "p99 (ms)"});
    for (unsigned banks : {2u, 3u, 4u}) {
        for (const auto &k : kinds) {
            auto cfg = hierarchyConfig(banks, k.kind);
            auto results = repeated(
                [&] { return core::runLoadSweep(cfg, loads, opts); });
            for (const auto &r : results) {
                EQX_ASSERT(r.sim.mem.active,
                           "hierarchy run reported inactive mem stats");
                EQX_ASSERT(r.sim.training_iterations > 0,
                           "hierarchy run made no training progress "
                           "(banks=", banks, " prefetch=", k.name, ")");
                e2e.addRow({std::to_string(banks), k.name,
                            bench::num(r.load, 2),
                            bench::num(r.sim.mem.hitRate() * 100.0, 1) +
                                "%",
                            std::to_string(r.sim.mem.sp_fill_stalls),
                            std::to_string(r.sim.training_iterations),
                            bench::num(r.p99_ms, 2)});
            }
            harness.recordSweep("mem.banks" + std::to_string(banks) +
                                    "." + k.name,
                                results);
        }
    }
    e2e.print(std::cout);

    // `--trace`: one representative traced run with the full hierarchy
    // (depth 2, next-line), exported as a Chrome/Perfetto trace with
    // the mem.staged_bytes counter track.
    bench::traceRepresentativeRun(
        harness, hierarchyConfig(2, mem::PrefetchKind::NextLine), 0.7,
        opts);

    std::printf("\nShape check: the same LLC geometry splits into a "
                ">= 90%% hit cache-resident regime\nand a <= 30%% hit "
                "streaming regime; next-line prefetch recovers the "
                "streaming\nmisses; deeper scratchpad ping-pong trades "
                "capacity for fewer fill stalls.\n");
    harness.finish();
    return 0;
}
