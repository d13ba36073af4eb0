/**
 * @file
 * A set-associative last-level cache model in front of the DRAM link.
 *
 * Timing-only: the cache tracks tags, not data. A demand hit completes
 * in hit_latency_cycles; a miss allocates the line (possibly evicting
 * the replacement victim) and costs a DRAM transfer, which the
 * hierarchy coalesces across contiguous missing lines. Replacement is
 * true LRU (per-line recency stamps) or tree pseudo-LRU (one bit per
 * internal node of a binary tree over the ways). Each line remembers
 * whether a prefetch brought it in, so the hierarchy can report
 * prefetch accuracy (useful prefetches / issued prefetches) and count
 * prefetched lines evicted untouched.
 */

#ifndef EQUINOX_MEM_LLC_HH
#define EQUINOX_MEM_LLC_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "mem/mem_config.hh"

namespace equinox
{
namespace mem
{

/** Tag-only set-associative cache with LRU / tree-PLRU replacement. */
class Llc
{
  public:
    explicit Llc(const LlcConfig &config);

    ByteCount lineBytes() const { return cfg.line_bytes; }
    Tick hitLatency() const { return cfg.hit_latency_cycles; }

    /** Line present (no state change, no stats). */
    bool contains(Addr line) const;

    /**
     * Demand access to @p line.
     * @return true on hit. A miss allocates the line, evicting the
     *         replacement victim if the set is full.
     */
    bool access(Addr line);

    /**
     * Install @p line on behalf of the prefetcher. No-op (returns
     * false) if the line is already resident -- a redundant prefetch
     * must not cost a DRAM transfer nor perturb recency.
     * @return true if the line was actually installed.
     */
    bool fillPrefetch(Addr line);

    // -- statistics -----------------------------------------------------
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t accesses() const { return hits_ + misses_; }
    std::uint64_t evictions() const { return evictions_; }
    /** Prefetched lines later touched by a demand access. */
    std::uint64_t prefetchUseful() const { return prefetch_useful_; }
    /** Prefetched lines evicted without a demand touch. */
    std::uint64_t prefetchUnused() const { return prefetch_unused_; }

  private:
    struct Way
    {
        bool valid = false;
        bool prefetched = false; //!< installed by prefetch, not yet used
        Addr tag = 0;
        std::uint64_t stamp = 0; //!< LRU recency (higher = more recent)
    };

    std::uint64_t setOf(Addr line) const { return line & (sets_ - 1); }
    Addr tagOf(Addr line) const { return line / sets_; }

    /** Way index of @p line in its set, or -1. */
    int findWay(std::uint64_t set, Addr tag) const;

    /** Pick the replacement victim way in @p set (set is full). */
    unsigned victimWay(std::uint64_t set) const;

    /** Update replacement state after touching @p way of @p set. */
    void touch(std::uint64_t set, unsigned way);

    /** Install @p tag into @p set, evicting if needed. */
    void install(std::uint64_t set, Addr tag, bool prefetched);

    LlcConfig cfg;
    std::uint64_t sets_;
    std::vector<Way> ways_;       //!< sets_ * cfg.ways, set-major
    std::vector<std::uint64_t> plru_; //!< per-set PLRU tree bitmask
    std::uint64_t clock_ = 0;     //!< LRU stamp source

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t prefetch_useful_ = 0;
    std::uint64_t prefetch_unused_ = 0;
};

} // namespace mem
} // namespace equinox

#endif // EQUINOX_MEM_LLC_HH
