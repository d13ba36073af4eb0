/**
 * @file
 * MemoryHierarchy: the pluggable composition of scratchpad, LLC,
 * write-combining buffer and prefetcher that the simulator's memory
 * seams call instead of the raw DRAM link.
 *
 *             read(addr)                       write(addr)
 *                 |                                 |
 *                 v                                 v
 *            +---------+   fill/refill    +------------------+
 *            |   LLC   |----------------->| write-combining  |
 *            | (+ pre- |   (coalesced     |     buffer       |
 *            | fetch)  |    miss runs)    +---------+--------+
 *            +----+----+                            | bursts
 *                 |                                 |
 *                 +-------------+   +---------------+
 *                               v   v
 *                        dram::PriorityLink (HBM)
 *
 * The scratchpad sits beside this path: the training prefetcher asks it
 * for fill headroom (the ping-pong discipline) and reports fills and
 * drains; its capacity replaces the flat staging capacity.
 *
 * PASSTHROUGH CONTRACT: with the default (all-disabled) configuration,
 * read() and write() forward to PriorityLink::transfer() exactly once
 * with the caller's arguments verbatim -- same tick, same bytes, same
 * priority, same fault pointer. The link's fault hook draws RNG per
 * transfer, so "exactly once, identical args" is what makes the
 * passthrough hierarchy byte-identical to the flat HBM path; the golden
 * digest suites pin this. Every other behaviour in this file is only
 * reachable when a component is explicitly enabled.
 */

#ifndef EQUINOX_MEM_MEMORY_HIERARCHY_HH
#define EQUINOX_MEM_MEMORY_HIERARCHY_HH

#include <memory>
#include <vector>

#include "common/types.hh"
#include "dram/link.hh"
#include "mem/llc.hh"
#include "mem/mem_config.hh"
#include "mem/mem_stats.hh"
#include "mem/prefetch.hh"
#include "mem/scratchpad.hh"
#include "mem/write_buffer.hh"

namespace equinox
{
namespace mem
{

/** The pluggable memory hierarchy in front of one DRAM link. */
class MemoryHierarchy
{
  public:
    /** @p link must outlive the hierarchy (both rebuilt per run). */
    MemoryHierarchy(const MemoryHierarchyConfig &config,
                    dram::PriorityLink *link);
    ~MemoryHierarchy();

    const MemoryHierarchyConfig &config() const { return cfg; }

    /** True when every access forwards verbatim (the identity path). */
    bool passthrough() const { return passthrough_; }

    /**
     * Read @p bytes at @p addr.
     * @return the tick the last byte is available. Passthrough: one
     *         verbatim link transfer. With the LLC enabled: hits cost
     *         hit_latency_cycles, contiguous missing lines coalesce
     *         into single link transfers, and the prefetcher may issue
     *         additional low-priority fills.
     */
    Tick read(Tick now, Addr addr, ByteCount bytes,
              dram::Priority priority, dram::TransferFault *fault);

    /**
     * Write @p bytes at @p addr. Writes bypass the LLC (no-allocate:
     * the training store stream is written once and re-read a full
     * pass later, so allocating would only evict live read data).
     * With the combining buffer enabled the store parks and the
     * caller-visible completion is immediate; forced bursts drain to
     * the link inside this call.
     */
    Tick write(Tick now, Addr addr, ByteCount bytes,
               dram::Priority priority, dram::TransferFault *fault);

    /** Drain every parked write to the link (fence / end of run). */
    Tick flushWrites(Tick now);

    // -- scratchpad seam (the training prefetcher's fill/drain port) ----
    bool hasScratchpad() const { return sp_ != nullptr; }

    /** Total scratchpad capacity (staging share when enabled). */
    ByteCount scratchpadCapacity() const;

    /**
     * Bytes the fill side may still issue: the ping-pong headroom
     * minus nothing -- callers subtract their own in-flight bytes.
     */
    ByteCount scratchpadFillHeadroom() const;

    /**
     * A fill of @p bytes landed.
     * @return bytes that just became consumable (completed banks).
     */
    ByteCount noteScratchpadFill(ByteCount bytes);

    /** Compute consumed @p bytes (fractional; a carry accumulates). */
    void noteScratchpadDrain(double bytes);

    /** A fill attempt stalled on the ping-pong headroom. */
    void noteScratchpadFillStall();

    /** Training rolled back: staged scratchpad contents are stale. */
    void rollbackScratchpad();

    // -- component access (stats, tests) ---------------------------------
    const Scratchpad *scratchpad() const { return sp_.get(); }
    const Llc *llc() const { return llc_.get(); }

    /** Snapshot every counter for SimResult / the stats registry. */
    MemStats stats() const;

  private:
    /** Forward one coalesced miss run, folding the fault report. */
    Tick missTransfer(Tick now, ByteCount bytes, dram::Priority priority,
                      dram::TransferFault *fault);

    MemoryHierarchyConfig cfg;
    dram::PriorityLink *link_;
    bool passthrough_;

    std::unique_ptr<Scratchpad> sp_;
    std::unique_ptr<Llc> llc_;
    std::unique_ptr<WriteCombiningBuffer> wb_;
    std::unique_ptr<PrefetchPolicy> policy_;

    std::vector<Addr> pf_candidates_; //!< per-read scratch, reused
    double drain_carry_ = 0.0; //!< fractional drain bytes not yet applied

    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
    ByteCount read_bytes_ = 0;
    ByteCount write_bytes_ = 0;
    std::uint64_t dram_transfers_ = 0;
    std::uint64_t prefetch_issued_ = 0;
};

} // namespace mem
} // namespace equinox

#endif // EQUINOX_MEM_MEMORY_HIERARCHY_HH
