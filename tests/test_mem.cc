/**
 * @file
 * Unit + property suite of the memory-hierarchy subsystem (src/mem):
 * replacement lemmas against a reference map model, the scratchpad's
 * ping-pong no-overlap invariant, write-combining conservation, DCPT
 * table properties, configuration validation messages, and the
 * MemoryHierarchy facade's passthrough/LLC/write-buffer paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/units.hh"
#include "dram/hbm.hh"
#include "mem/llc.hh"
#include "mem/mem_config.hh"
#include "mem/memory_hierarchy.hh"
#include "mem/prefetch.hh"
#include "mem/scratchpad.hh"
#include "mem/write_buffer.hh"

namespace equinox
{
namespace mem
{
namespace
{

// ---------------------------------------------------------------------
// Configuration validation
// ---------------------------------------------------------------------

bool
hasError(const std::vector<MemConfigError> &errors,
         const std::string &field)
{
    return std::any_of(errors.begin(), errors.end(),
                       [&field](const MemConfigError &e) {
                           return e.field == field;
                       });
}

TEST(MemConfig, DefaultIsPassthroughAndValid)
{
    MemoryHierarchyConfig cfg;
    EXPECT_TRUE(cfg.passthrough());
    EXPECT_TRUE(cfg.validate().empty());
}

TEST(MemConfig, AnyEnabledComponentLeavesPassthrough)
{
    MemoryHierarchyConfig cfg;
    cfg.scratchpad.enabled = true;
    EXPECT_FALSE(cfg.passthrough());

    cfg = {};
    cfg.llc.enabled = true;
    EXPECT_FALSE(cfg.passthrough());

    cfg = {};
    cfg.write_buffer.enabled = true;
    EXPECT_FALSE(cfg.passthrough());

    cfg = {};
    cfg.llc.enabled = true;
    cfg.prefetch.kind = PrefetchKind::NextLine;
    EXPECT_FALSE(cfg.passthrough());
}

TEST(MemConfig, RejectsSingleBankScratchpad)
{
    MemoryHierarchyConfig cfg;
    cfg.scratchpad.enabled = true;
    cfg.scratchpad.banks = 1;
    auto errors = cfg.validate();
    EXPECT_TRUE(hasError(errors, "scratchpad.banks"));
    EXPECT_NE(formatMemConfigErrors(errors).find("ping-pong"),
              std::string::npos);
}

TEST(MemConfig, RejectsTinyBank)
{
    MemoryHierarchyConfig cfg;
    cfg.scratchpad.enabled = true;
    cfg.scratchpad.bank_bytes = 256;
    EXPECT_TRUE(hasError(cfg.validate(), "scratchpad.bank_bytes"));
}

TEST(MemConfig, RejectsBadLlcGeometry)
{
    MemoryHierarchyConfig cfg;
    cfg.llc.enabled = true;
    cfg.llc.line_bytes = 100; // not a power of two
    EXPECT_TRUE(hasError(cfg.validate(), "llc.line_bytes"));

    cfg.llc.line_bytes = 16; // too small
    EXPECT_TRUE(hasError(cfg.validate(), "llc.line_bytes"));

    cfg.llc.line_bytes = 256;
    cfg.llc.ways = 0;
    EXPECT_TRUE(hasError(cfg.validate(), "llc.ways"));

    // size < line * ways: zero sets.
    cfg.llc.ways = 8;
    cfg.llc.size_bytes = 1024;
    EXPECT_TRUE(hasError(cfg.validate(), "llc.size_bytes"));

    // Non-power-of-two set count.
    cfg.llc.size_bytes = 3 * 256 * 8;
    EXPECT_TRUE(hasError(cfg.validate(), "llc.size_bytes"));
}

TEST(MemConfig, RejectsPlruWithNonPowerOfTwoWays)
{
    MemoryHierarchyConfig cfg;
    cfg.llc.enabled = true;
    cfg.llc.replacement = Replacement::PseudoLru;
    cfg.llc.ways = 6;
    cfg.llc.size_bytes = 6 * 256 * 16;
    EXPECT_TRUE(hasError(cfg.validate(), "llc.ways"));
}

TEST(MemConfig, RejectsPrefetcherWithoutLlc)
{
    MemoryHierarchyConfig cfg;
    cfg.prefetch.kind = PrefetchKind::NextLine;
    auto errors = cfg.validate();
    EXPECT_TRUE(hasError(errors, "prefetch.kind"));
    EXPECT_NE(formatMemConfigErrors(errors).find("llc"),
              std::string::npos);
}

TEST(MemConfig, RejectsDegenerateDcpt)
{
    MemoryHierarchyConfig cfg;
    cfg.llc.enabled = true;
    cfg.prefetch.kind = PrefetchKind::Dcpt;
    cfg.prefetch.degree = 0;
    cfg.prefetch.dcpt_entries = 0;
    cfg.prefetch.dcpt_deltas = 1;
    auto errors = cfg.validate();
    EXPECT_TRUE(hasError(errors, "prefetch.degree"));
    EXPECT_TRUE(hasError(errors, "prefetch.dcpt_entries"));
    EXPECT_TRUE(hasError(errors, "prefetch.dcpt_deltas"));
}

TEST(MemConfig, RejectsDegenerateWriteBuffer)
{
    MemoryHierarchyConfig cfg;
    cfg.write_buffer.enabled = true;
    cfg.write_buffer.entries = 0;
    cfg.write_buffer.entry_bytes = 32;
    auto errors = cfg.validate();
    EXPECT_TRUE(hasError(errors, "write_buffer.entries"));
    EXPECT_TRUE(hasError(errors, "write_buffer.entry_bytes"));
}

TEST(MemConfig, EnumNamesAreStable)
{
    EXPECT_STREQ(replacementName(Replacement::Lru), "lru");
    EXPECT_STREQ(replacementName(Replacement::PseudoLru), "pseudo_lru");
    EXPECT_STREQ(prefetchKindName(PrefetchKind::None), "none");
    EXPECT_STREQ(prefetchKindName(PrefetchKind::NextLine), "next_line");
    EXPECT_STREQ(prefetchKindName(PrefetchKind::Dcpt), "dcpt");
}

// ---------------------------------------------------------------------
// Scratchpad double-buffering
// ---------------------------------------------------------------------

ScratchpadConfig
spConfig(unsigned banks, ByteCount bank_bytes)
{
    ScratchpadConfig cfg;
    cfg.enabled = true;
    cfg.banks = banks;
    cfg.bank_bytes = bank_bytes;
    return cfg;
}

TEST(Scratchpad, GrantsOnlyCompletedBanks)
{
    Scratchpad sp(spConfig(2, 1024));
    EXPECT_EQ(sp.capacity(), 2048u);
    EXPECT_EQ(sp.fillHeadroom(), 2048u);

    EXPECT_EQ(sp.fillArrived(512), 0u); // half a bank: nothing staged
    EXPECT_EQ(sp.consumable(), 0u);
    EXPECT_EQ(sp.held(), 512u);

    EXPECT_EQ(sp.fillArrived(512), 1024u); // bank 0 completes
    EXPECT_EQ(sp.consumable(), 1024u);
    EXPECT_EQ(sp.held(), 0u);

    EXPECT_EQ(sp.fillArrived(1024), 1024u); // bank 1 completes
    EXPECT_EQ(sp.fillHeadroom(), 0u);       // both banks live
    EXPECT_EQ(sp.occupancy(), sp.capacity());
}

TEST(Scratchpad, DrainReopensBanksAtBankGranularity)
{
    Scratchpad sp(spConfig(2, 1024));
    sp.fillArrived(2048);
    ASSERT_EQ(sp.consumable(), 2048u);

    sp.drained(512); // half of bank 0: still not refillable
    EXPECT_EQ(sp.fillHeadroom(), 0u);
    sp.drained(512); // bank 0 fully drained
    EXPECT_EQ(sp.fillHeadroom(), 1024u);
    sp.drained(1024);
    EXPECT_EQ(sp.fillHeadroom(), 2048u);
    EXPECT_EQ(sp.bytesDrained(), 2048u);
    EXPECT_EQ(sp.bytesFilled(), 2048u);
}

TEST(Scratchpad, PingPongNeverOverlapsFillAndDrainBank)
{
    // Property fuzz: a random interleave of legal fills and drains.
    // The double-buffering invariant: whenever a fill and a drain are
    // both mid-bank, they target distinct physical banks.
    for (unsigned banks : {2u, 3u, 4u}) {
        Rng rng(901 + banks);
        Scratchpad sp(spConfig(banks, 1024));
        for (int step = 0; step < 5000; ++step) {
            bool can_fill = sp.fillHeadroom() > 0;
            bool can_drain = sp.consumable() > 0;
            ASSERT_TRUE(can_fill || can_drain); // never deadlocked
            bool fill = can_fill &&
                        (!can_drain || rng.uniform() < 0.5);
            if (fill) {
                ByteCount n = rng.uniformInt(1, sp.fillHeadroom());
                sp.fillArrived(n);
            } else {
                ByteCount n = rng.uniformInt(1, sp.consumable());
                sp.drained(n);
            }
            if (sp.fillActive() && sp.drainActive()) {
                ASSERT_NE(sp.fillBank(), sp.drainBank());
            }
            ASSERT_LE(sp.occupancy(), sp.capacity());
            ASSERT_LE(sp.bytesDrained(), sp.bytesFilled());
        }
        EXPECT_GT(sp.bankSwitches(), 0u);
    }
}

TEST(Scratchpad, RollbackDropsContentsKeepsRunTotals)
{
    Scratchpad sp(spConfig(2, 1024));
    sp.fillArrived(1536);
    sp.drained(512);
    sp.noteFillStall();
    auto filled_before = sp.bytesFilled();
    auto fills_before = sp.fills();

    sp.rollback();
    EXPECT_EQ(sp.occupancy(), 0u);
    EXPECT_EQ(sp.consumable(), 0u);
    EXPECT_EQ(sp.fillHeadroom(), sp.capacity());
    EXPECT_EQ(sp.bytesFilled(), filled_before);
    EXPECT_EQ(sp.fills(), fills_before);
    EXPECT_EQ(sp.fillStalls(), 1u);

    // Usable again after rollback.
    EXPECT_EQ(sp.fillArrived(1024), 1024u);
}

TEST(Scratchpad, TracksOccupancyHighWater)
{
    Scratchpad sp(spConfig(2, 1024));
    sp.fillArrived(1500);
    sp.drained(1024);
    sp.fillArrived(200);
    EXPECT_EQ(sp.occupancyHighWater(), 1500u);
    EXPECT_EQ(sp.drains(), 1u);
}

// ---------------------------------------------------------------------
// LLC replacement lemmas vs a reference model
// ---------------------------------------------------------------------

LlcConfig
llcConfig(ByteCount size, ByteCount line, unsigned ways, Replacement rep)
{
    LlcConfig cfg;
    cfg.enabled = true;
    cfg.size_bytes = size;
    cfg.line_bytes = line;
    cfg.ways = ways;
    cfg.replacement = rep;
    return cfg;
}

/** Reference LRU cache: per-set recency list, exact semantics. */
class RefLru
{
  public:
    RefLru(std::uint64_t sets, unsigned ways) : sets_(sets), ways_(ways),
                                                lists_(sets)
    {
    }

    bool
    access(Addr line)
    {
        auto &l = lists_[line & (sets_ - 1)];
        auto it = std::find(l.begin(), l.end(), line);
        if (it != l.end()) {
            l.erase(it);
            l.push_front(line);
            return true;
        }
        if (l.size() >= ways_)
            l.pop_back();
        l.push_front(line);
        return false;
    }

  private:
    std::uint64_t sets_;
    unsigned ways_;
    std::vector<std::list<Addr>> lists_;
};

TEST(Llc, LruMatchesReferenceModelOnRandomStream)
{
    // 16 KiB / 256 B lines / 4 ways = 16 sets.
    Llc llc(llcConfig(units::KiB(16), 256, 4, Replacement::Lru));
    RefLru ref(16, 4);
    Rng rng(4242);
    std::uint64_t hits = 0;
    for (int i = 0; i < 20000; ++i) {
        // Skewed towards a hot region so hits and evictions both occur.
        Addr line = rng.uniform() < 0.5 ? rng.uniformInt(0, 63)
                                        : rng.uniformInt(0, 4095);
        bool hit = llc.access(line);
        ASSERT_EQ(hit, ref.access(line)) << "access " << i;
        hits += hit ? 1 : 0;
    }
    EXPECT_EQ(llc.hits(), hits);
    EXPECT_EQ(llc.hits() + llc.misses(), llc.accesses());
    EXPECT_EQ(llc.accesses(), 20000u);
    EXPECT_GT(llc.evictions(), 0u);
}

TEST(Llc, WorkingSetWithinAssociativityAlwaysHitsAfterWarmup)
{
    // Cycling over exactly `ways` lines of one set never misses after
    // the first touch -- under LRU and under tree-PLRU.
    for (auto rep : {Replacement::Lru, Replacement::PseudoLru}) {
        Llc llc(llcConfig(units::KiB(16), 256, 4, rep));
        // 16 sets: lines k*16 all map to set 0.
        for (int pass = 0; pass < 8; ++pass) {
            for (Addr k = 0; k < 4; ++k) {
                bool hit = llc.access(k * 16);
                EXPECT_EQ(hit, pass > 0);
            }
        }
        EXPECT_EQ(llc.misses(), 4u);
        EXPECT_EQ(llc.evictions(), 0u);
    }
}

TEST(Llc, PlruVictimIsNeverTheMostRecentlyTouchedWay)
{
    // One-set cache, 8 ways, tree-PLRU: fill the set, then repeatedly
    // touch a random resident line and insert a fresh one. The fresh
    // line must never evict the line touched immediately before.
    Llc llc(llcConfig(8 * 256, 256, 8, Replacement::PseudoLru));
    std::vector<Addr> resident;
    for (Addr l = 0; l < 8; ++l) {
        llc.access(l);
        resident.push_back(l);
    }
    Rng rng(7);
    Addr next_fresh = 8;
    for (int i = 0; i < 2000; ++i) {
        Addr touched = resident[rng.uniformInt(0, resident.size() - 1)];
        ASSERT_TRUE(llc.access(touched));
        Addr fresh = next_fresh++;
        ASSERT_FALSE(llc.access(fresh));
        // Exactly one resident line was evicted; find it.
        std::size_t evicted = resident.size();
        for (std::size_t r = 0; r < resident.size(); ++r) {
            if (!llc.contains(resident[r])) {
                ASSERT_EQ(evicted, resident.size())
                    << "more than one line evicted";
                evicted = r;
            }
        }
        ASSERT_NE(evicted, resident.size());
        EXPECT_NE(resident[evicted], touched)
            << "PLRU evicted the most recently touched way";
        resident[evicted] = fresh;
    }
    EXPECT_EQ(llc.hits() + llc.misses(), llc.accesses());
}

TEST(Llc, StreamingSweepLargerThanCacheMissesEverywhere)
{
    Llc llc(llcConfig(units::KiB(16), 256, 4, Replacement::Lru));
    // 64 lines fit; sweep 1024 distinct lines twice. With true LRU and
    // a sweep 16x the capacity, the second pass misses everywhere too.
    for (int pass = 0; pass < 2; ++pass)
        for (Addr l = 0; l < 1024; ++l)
            EXPECT_FALSE(llc.access(l));
    EXPECT_EQ(llc.hits(), 0u);
    EXPECT_EQ(llc.misses(), 2048u);
}

TEST(Llc, PrefetchedLinesTrackUsefulAndUnused)
{
    Llc llc(llcConfig(8 * 256, 256, 8, Replacement::Lru));
    EXPECT_TRUE(llc.fillPrefetch(1));
    EXPECT_FALSE(llc.fillPrefetch(1)); // already resident: no-op
    EXPECT_TRUE(llc.contains(1));

    // Demand touch converts the line to useful exactly once.
    EXPECT_TRUE(llc.access(1));
    EXPECT_EQ(llc.prefetchUseful(), 1u);
    llc.access(1);
    EXPECT_EQ(llc.prefetchUseful(), 1u);

    // An untouched prefetched line evicted counts as unused.
    EXPECT_TRUE(llc.fillPrefetch(100));
    for (Addr l = 2; l < 10; ++l)
        llc.access(l); // evicts line 100 (and line 1) from the set
    EXPECT_EQ(llc.prefetchUnused(), 1u);
}

// ---------------------------------------------------------------------
// Write-combining buffer conservation
// ---------------------------------------------------------------------

WriteBufferConfig
wbConfig(unsigned entries, ByteCount entry_bytes)
{
    WriteBufferConfig cfg;
    cfg.enabled = true;
    cfg.entries = entries;
    cfg.entry_bytes = entry_bytes;
    return cfg;
}

TEST(WriteBuffer, CombinesStoresIntoOneBurst)
{
    WriteCombiningBuffer wb(wbConfig(4, 1024));
    // Three partial stores to the same region: parked, no burst yet.
    EXPECT_TRUE(wb.push(0, 256).empty());
    EXPECT_TRUE(wb.push(256, 256).empty());
    EXPECT_TRUE(wb.push(512, 256).empty());
    EXPECT_EQ(wb.occupancy(), 768u);
    EXPECT_EQ(wb.combines(), 2u);

    // The fourth store completes the entry: one full burst drains.
    auto bursts = wb.push(768, 256);
    ASSERT_EQ(bursts.size(), 1u);
    EXPECT_EQ(bursts[0].base, 0u);
    EXPECT_EQ(bursts[0].bytes, 1024u);
    EXPECT_EQ(wb.occupancy(), 0u);
    EXPECT_EQ(wb.drains(), 1u);
}

TEST(WriteBuffer, FifoSpillsOldestEntryWhenFull)
{
    WriteCombiningBuffer wb(wbConfig(2, 1024));
    wb.push(0 * 1024, 100);
    wb.push(5 * 1024, 100);
    // A third distinct region forces the oldest (region 0) out.
    auto bursts = wb.push(9 * 1024, 100);
    ASSERT_EQ(bursts.size(), 1u);
    EXPECT_EQ(bursts[0].base, 0u);
    EXPECT_EQ(bursts[0].bytes, 100u);
    EXPECT_EQ(wb.openEntries(), 2u);
}

TEST(WriteBuffer, SpanningStoreSplitsAtRegionBoundaries)
{
    WriteCombiningBuffer wb(wbConfig(8, 1024));
    // 2.5 regions starting mid-region: full regions drain immediately.
    auto bursts = wb.push(512, 2560);
    // [512,1024) parks; [1024,2048) full burst; [2048,3072) full burst.
    EXPECT_EQ(bursts.size(), 2u);
    EXPECT_EQ(wb.occupancy(), 512u);
    auto rest = wb.flush();
    ASSERT_EQ(rest.size(), 1u);
    EXPECT_EQ(rest[0].bytes, 512u);
    EXPECT_EQ(wb.bytesIn(), wb.bytesDrained());
}

TEST(WriteBuffer, ConservationHoldsUnderRandomStores)
{
    // Property fuzz: bytes in == bytes drained + occupancy, always;
    // after flush the two totals are equal exactly.
    Rng rng(1717);
    WriteCombiningBuffer wb(wbConfig(4, 4096));
    ByteCount pushed = 0;
    for (int i = 0; i < 10000; ++i) {
        Addr addr = rng.uniformInt(0, 1 << 20);
        ByteCount bytes = rng.uniformInt(1, 8192);
        wb.push(addr, bytes);
        pushed += bytes;
        ASSERT_EQ(wb.bytesIn(), pushed);
        ASSERT_EQ(wb.bytesIn(), wb.bytesDrained() + wb.occupancy());
        ASSERT_LE(wb.openEntries(), 4u);
    }
    wb.flush();
    EXPECT_EQ(wb.occupancy(), 0u);
    EXPECT_EQ(wb.bytesIn(), wb.bytesDrained());
    EXPECT_GT(wb.combines(), 0u);
    EXPECT_EQ(wb.writes(), 10000u);
}

// ---------------------------------------------------------------------
// Prefetch policies
// ---------------------------------------------------------------------

PrefetchConfig
pfConfig(PrefetchKind kind, unsigned degree = 2)
{
    PrefetchConfig cfg;
    cfg.kind = kind;
    cfg.degree = degree;
    return cfg;
}

TEST(Prefetch, NonePolicyNeverPredicts)
{
    auto p = makePrefetchPolicy(pfConfig(PrefetchKind::None));
    EXPECT_STREQ(p->name(), "none");
    std::vector<Addr> out;
    for (Addr l = 0; l < 100; ++l)
        p->onAccess(l, false, out);
    EXPECT_TRUE(out.empty());
}

TEST(Prefetch, NextLinePredictsOnMissesOnly)
{
    auto p = makePrefetchPolicy(pfConfig(PrefetchKind::NextLine, 3));
    EXPECT_STREQ(p->name(), "next_line");
    std::vector<Addr> out;
    p->onAccess(10, /*hit=*/true, out);
    EXPECT_TRUE(out.empty());
    p->onAccess(10, /*hit=*/false, out);
    EXPECT_EQ(out, (std::vector<Addr>{11, 12, 13}));
}

TEST(Prefetch, DcptLearnsAPureStride)
{
    DcptPrefetcher dcpt(pfConfig(PrefetchKind::Dcpt, 2));
    std::vector<Addr> out;
    // Stride 3: 0, 3, 6, 9 -- three deltas recorded at 9; the matched
    // pair replays the stride forward.
    dcpt.onAccess(0, false, out);
    dcpt.onAccess(3, false, out);
    dcpt.onAccess(6, false, out);
    EXPECT_TRUE(out.empty()); // needs 3 deltas to correlate
    dcpt.onAccess(9, false, out);
    EXPECT_EQ(out, (std::vector<Addr>{12, 15}));
}

TEST(Prefetch, DcptReplaysAPeriodicDeltaPattern)
{
    PrefetchConfig cfg = pfConfig(PrefetchKind::Dcpt, 3);
    cfg.dcpt_deltas = 8;
    DcptPrefetcher dcpt(cfg);
    std::vector<Addr> out;
    // Deltas alternate +1, +4: 0, 1, 5, 6, 10, 11, ...
    for (Addr a : {0u, 1u, 5u, 6u, 10u})
        dcpt.onAccess(a, false, out);
    out.clear();
    dcpt.onAccess(11, false, out);
    // After ...,+4(->10),+1(->11) the pattern continues +4, +1, +4.
    EXPECT_EQ(out, (std::vector<Addr>{15, 16, 20}));
}

TEST(Prefetch, DcptIgnoresRepeatedSameLineAccesses)
{
    DcptPrefetcher dcpt(pfConfig(PrefetchKind::Dcpt, 2));
    std::vector<Addr> out;
    for (int i = 0; i < 10; ++i)
        dcpt.onAccess(42, false, out);
    EXPECT_TRUE(out.empty());
    // The zero-delta stream must not have corrupted the history:
    // a stride stream afterwards still learns.
    dcpt.onAccess(45, false, out);
    dcpt.onAccess(48, false, out);
    dcpt.onAccess(51, false, out);
    EXPECT_FALSE(out.empty());
}

TEST(Prefetch, DcptTableIsBoundedAndRecyclesLru)
{
    PrefetchConfig cfg = pfConfig(PrefetchKind::Dcpt, 2);
    cfg.dcpt_entries = 4;
    DcptPrefetcher dcpt(cfg);
    std::vector<Addr> out;
    // Touch 16 distinct regions (region = line >> 6).
    for (Addr r = 0; r < 16; ++r)
        dcpt.onAccess(r << 6, false, out);
    EXPECT_LE(dcpt.liveEntries(), 4u);
    EXPECT_EQ(dcpt.liveEntries(), 4u);
}

TEST(Prefetch, DcptSeparateRegionsLearnIndependently)
{
    PrefetchConfig cfg = pfConfig(PrefetchKind::Dcpt, 1);
    cfg.dcpt_entries = 8;
    DcptPrefetcher dcpt(cfg);
    std::vector<Addr> out;
    // Interleave two strided streams in different regions.
    Addr a = 0, b = 1 << 10;
    for (int i = 0; i < 4; ++i) {
        dcpt.onAccess(a, false, out);
        dcpt.onAccess(b, false, out);
        a += 2;
        b += 5;
    }
    // Both streams had >= 3 deltas; each predicted its own stride.
    EXPECT_FALSE(out.empty());
    for (Addr p : out) {
        bool in_a = p < (1 << 10);
        EXPECT_EQ((p - (in_a ? 0 : (1 << 10))) %
                      (in_a ? 2 : 5),
                  0u);
    }
}

// ---------------------------------------------------------------------
// MemoryHierarchy facade
// ---------------------------------------------------------------------

dram::PriorityLink
testLink()
{
    dram::PriorityLink::Config cfg;
    cfg.bandwidth_bytes_per_s = 1e11;
    cfg.latency_s = 100e-9;
    return dram::PriorityLink(cfg, units::MHz(100));
}

TEST(MemoryHierarchy, PassthroughForwardsVerbatim)
{
    auto direct = testLink();
    auto fronted = testLink();
    MemoryHierarchyConfig cfg;
    MemoryHierarchy mh(cfg, &fronted);
    ASSERT_TRUE(mh.passthrough());

    Rng rng(33);
    Tick now = 0;
    for (int i = 0; i < 500; ++i) {
        now += rng.uniformInt(0, 50);
        ByteCount bytes = rng.uniformInt(1, 65536);
        auto prio = rng.uniform() < 0.3 ? dram::Priority::High
                                        : dram::Priority::Low;
        Tick want = direct.transfer(now, bytes, prio, nullptr);
        Tick got = rng.uniform() < 0.5
                       ? mh.read(now, i * 1000, bytes, prio, nullptr)
                       : mh.write(now, i * 1000, bytes, prio, nullptr);
        ASSERT_EQ(got, want) << "transfer " << i;
    }
    EXPECT_EQ(direct.bytesMoved(dram::Priority::Low),
              fronted.bytesMoved(dram::Priority::Low));
    EXPECT_EQ(direct.bytesMoved(dram::Priority::High),
              fronted.bytesMoved(dram::Priority::High));

    // Passthrough reports inactive, all-zero stats.
    auto s = mh.stats();
    EXPECT_FALSE(s.active);
    EXPECT_EQ(s.reads, 0u);
    EXPECT_EQ(s.dram_transfers, 0u);
}

TEST(MemoryHierarchy, LlcHitsSkipTheDramLink)
{
    auto link = testLink();
    MemoryHierarchyConfig cfg;
    cfg.llc.enabled = true;
    cfg.llc.size_bytes = units::KiB(64);
    cfg.llc.line_bytes = 256;
    cfg.llc.ways = 4;
    MemoryHierarchy mh(cfg, &link);

    // Cold read: misses, one coalesced transfer for the whole span.
    Tick t1 = mh.read(0, 0, 4096, dram::Priority::Low, nullptr);
    EXPECT_GT(t1, 0u);
    EXPECT_EQ(mh.stats().llc_misses, 16u);
    EXPECT_EQ(mh.stats().dram_transfers, 1u);
    ByteCount moved = link.bytesMoved(dram::Priority::Low);
    EXPECT_EQ(moved, 4096u);

    // Warm re-read: all hits, no link traffic, hit-latency completion.
    Tick t2 = mh.read(1000, 0, 4096, dram::Priority::Low, nullptr);
    EXPECT_EQ(t2, 1000 + cfg.llc.hit_latency_cycles);
    EXPECT_EQ(mh.stats().llc_hits, 16u);
    EXPECT_EQ(link.bytesMoved(dram::Priority::Low), moved);

    // hit + miss == accesses, and the stats snapshot is active.
    auto s = mh.stats();
    EXPECT_TRUE(s.active);
    EXPECT_EQ(s.llc_hits + s.llc_misses, 32u);
    EXPECT_EQ(s.reads, 2u);
    EXPECT_EQ(s.read_bytes, 8192u);
}

TEST(MemoryHierarchy, InterleavedHitsSplitTheMissRuns)
{
    auto link = testLink();
    MemoryHierarchyConfig cfg;
    cfg.llc.enabled = true;
    cfg.llc.size_bytes = units::KiB(64);
    cfg.llc.line_bytes = 256;
    cfg.llc.ways = 4;
    MemoryHierarchy mh(cfg, &link);

    // Warm lines 1 and 3 of a 5-line span; the cold span then needs
    // three separate transfers (line 0, line 2, line 4).
    mh.read(0, 1 * 256, 256, dram::Priority::Low, nullptr);
    mh.read(0, 3 * 256, 256, dram::Priority::Low, nullptr);
    auto before = mh.stats().dram_transfers;
    mh.read(100, 0, 5 * 256, dram::Priority::Low, nullptr);
    EXPECT_EQ(mh.stats().dram_transfers - before, 3u);
}

TEST(MemoryHierarchy, NextLinePrefetchTurnsStreamingIntoHits)
{
    auto link = testLink();
    MemoryHierarchyConfig cfg;
    cfg.llc.enabled = true;
    cfg.llc.size_bytes = units::KiB(64);
    cfg.llc.line_bytes = 256;
    cfg.llc.ways = 4;
    cfg.prefetch.kind = PrefetchKind::NextLine;
    cfg.prefetch.degree = 4;
    MemoryHierarchy mh(cfg, &link);

    // Sequential line-sized reads: after the first miss, the
    // prefetcher stays ahead of the demand stream.
    for (Addr l = 0; l < 64; ++l)
        mh.read(l * 10, l * 256, 256, dram::Priority::Low, nullptr);
    auto s = mh.stats();
    EXPECT_GT(s.prefetch_issued, 0u);
    EXPECT_GT(s.prefetch_useful, 0u);
    EXPECT_GT(s.llc_hits, s.llc_misses);
    EXPECT_LE(s.prefetch_useful, s.prefetch_issued);
}

TEST(MemoryHierarchy, WriteBufferDrainsThroughTheLink)
{
    auto link = testLink();
    MemoryHierarchyConfig cfg;
    cfg.write_buffer.enabled = true;
    cfg.write_buffer.entries = 4;
    cfg.write_buffer.entry_bytes = 4096;
    MemoryHierarchy mh(cfg, &link);

    // Parked store: no link traffic, completion is immediate.
    Tick t = mh.write(5, 0, 1024, dram::Priority::Low, nullptr);
    EXPECT_EQ(t, 5u);
    EXPECT_EQ(link.bytesMoved(dram::Priority::Low), 0u);

    // Fill the region: the burst drains through the link.
    mh.write(6, 1024, 3072, dram::Priority::Low, nullptr);
    EXPECT_EQ(link.bytesMoved(dram::Priority::Low), 4096u);

    // flushWrites() drains the stragglers.
    mh.write(7, units::MiB(1), 100, dram::Priority::Low, nullptr);
    Tick done = mh.flushWrites(8);
    EXPECT_GT(done, 8u);
    auto s = mh.stats();
    EXPECT_EQ(s.wb_bytes_in, s.wb_bytes_drained);
    EXPECT_EQ(s.wb_occupancy, 0u);
    EXPECT_EQ(link.bytesMoved(dram::Priority::Low), 4196u);
}

TEST(MemoryHierarchy, ScratchpadSeamStagesAndRollsBack)
{
    auto link = testLink();
    MemoryHierarchyConfig cfg;
    cfg.scratchpad.enabled = true;
    cfg.scratchpad.banks = 2;
    cfg.scratchpad.bank_bytes = 1024;
    MemoryHierarchy mh(cfg, &link);
    ASSERT_TRUE(mh.hasScratchpad());
    EXPECT_EQ(mh.scratchpadCapacity(), 2048u);
    EXPECT_EQ(mh.scratchpadFillHeadroom(), 2048u);

    EXPECT_EQ(mh.noteScratchpadFill(1024), 1024u);
    // Fractional drains accumulate in the carry until whole bytes.
    mh.noteScratchpadDrain(0.25);
    mh.noteScratchpadDrain(0.25);
    EXPECT_EQ(mh.scratchpad()->bytesDrained(), 0u);
    mh.noteScratchpadDrain(0.75);
    EXPECT_EQ(mh.scratchpad()->bytesDrained(), 1u);

    mh.noteScratchpadFillStall();
    mh.rollbackScratchpad();
    EXPECT_EQ(mh.scratchpadFillHeadroom(), 2048u);
    auto s = mh.stats();
    EXPECT_EQ(s.sp_fill_stalls, 1u);
    EXPECT_EQ(s.sp_bytes_filled, 1024u);
    EXPECT_EQ(s.sp_high_water, 1024u);
}

TEST(MemoryHierarchy, FaultReportsFoldAcrossMissRuns)
{
    // A hook that poisons one specific transfer: the fold must keep
    // the poisoned run visible even when later runs are clean.
    class OneShotHook : public dram::LinkFaultHook
    {
      public:
        dram::TransferFault
        onTransfer(Tick, ByteCount, dram::Priority) override
        {
            dram::TransferFault f;
            if (++calls_ == 1) {
                f.uncorrectable = true;
                f.extra_cycles = 7;
            }
            return f;
        }
        int calls_ = 0;
    };

    auto link = testLink();
    OneShotHook hook;
    link.setFaultHook(&hook);
    MemoryHierarchyConfig cfg;
    cfg.llc.enabled = true;
    cfg.llc.size_bytes = units::KiB(64);
    cfg.llc.line_bytes = 256;
    cfg.llc.ways = 4;
    MemoryHierarchy mh(cfg, &link);

    // Warm line 1 so a cold 3-line read splits into two miss runs.
    // The warming transfer spends the hook's poisoned call.
    mh.read(0, 256, 256, dram::Priority::Low, nullptr);
    ASSERT_EQ(hook.calls_, 1);

    hook.calls_ = 0; // re-arm: poison the FIRST of the two miss runs
    dram::TransferFault f;
    mh.read(10, 0, 3 * 256, dram::Priority::Low, &f);
    EXPECT_EQ(hook.calls_, 2); // [line 0] then [line 2], line 1 hit
    EXPECT_TRUE(f.uncorrectable);
    EXPECT_EQ(f.extra_cycles, 7u);
}

} // namespace
} // namespace mem
} // namespace equinox
