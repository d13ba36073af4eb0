/**
 * @file
 * The shared service/batch/training state records the simulation blocks
 * exchange, plus the typed BatchQueue port that carries formed batches
 * from the request dispatcher to the instruction dispatcher.
 *
 * These used to be private structs inside the monolithic Accelerator;
 * they live here so blocks and tests can name them directly.
 */

#ifndef EQUINOX_SIM_BLOCKS_INF_TYPES_HH
#define EQUINOX_SIM_BLOCKS_INF_TYPES_HH

#include <algorithm>
#include <vector>

#include "common/arena.hh"
#include "common/random.hh"
#include "common/types.hh"
#include "isa/program.hh"
#include "sim/accelerator_types.hh"
#include "stats/histogram.hh"

namespace equinox
{
namespace sim
{

/** One installed inference service (a hardware context, Figure 5). */
struct InfService
{
    ContextId id = 0;
    InferenceServiceDesc desc;
    Tick timeout_cycles = 0;      //!< adaptive batch-formation threshold
    ArrivalStream arrivals;       //!< this service's arrival candidates
    /**
     * Per program step: Datapath::interleaveGranule() of its MMU work,
     * derived once at install.
     */
    std::vector<Tick> chunk_granules;
    /**
     * Arrival ticks awaiting batching. A growable ring instead of
     * std::deque: arrival + batch-forming churn it on every request,
     * and the ring never allocates after warmup.
     */
    common::Ring<Tick> pending;
    bool timeout_armed = false;
    stats::LatencyTracker latency_cycles; //!< measured window
};

/**
 * A formed batch moving through the datapath. Storage comes from the
 * SimContext's batch arena (common::ObjectPool): the request
 * dispatcher acquires one per formed batch, the datapath releases it
 * at retire, and resetForReuse() re-initializes every field while
 * keeping the arrivals vector's grown capacity -- the steady state
 * forms batches with zero heap allocations.
 */
struct InfBatch
{
    InfService *svc = nullptr;
    std::uint32_t real = 0;       //!< real requests (rest is padding)
    double real_frac = 0.0;       //!< real / the program's batch_rows
    std::vector<Tick> arrivals;
    std::size_t step = 0;
    Tick issued_in_step = 0;      //!< MMU cycles of the step already run
    Tick ready_at = 0;            //!< next step's dependence-ready tick
    Tick first_issue = kTickMax;
    bool in_flight = false;
    bool done = false;

    /** Reset to a fresh batch; arrivals keeps its capacity. */
    void
    resetForReuse()
    {
        svc = nullptr;
        real = 0;
        real_frac = 0.0;
        arrivals.clear();
        step = 0;
        issued_in_step = 0;
        ready_at = 0;
        first_issue = kTickMax;
        in_flight = false;
        done = false;
    }

    /** Hold @p n real requests out of @p rows; fixes real_frac. */
    void
    setReal(std::uint32_t n, std::uint32_t rows)
    {
        real = n;
        real_frac = static_cast<double>(n) / static_cast<double>(rows);
    }
};

/**
 * Install-time constants of one training step's MMU work, derived once
 * from the program instead of on every scheduling round.
 */
struct TrainStepRate
{
    /** Streamed bytes per MMU cycle (0 when the step streams none). */
    double bpc = 0.0;
    /** MMU cycles of one instruction, at least 1. */
    Tick granule = 1;
};

/** The training service's execution and prefetch state. */
struct TrainState
{
    TrainingServiceDesc desc;
    ByteCount staging_capacity = 0;
    // -- install-time constants (Accelerator::installTraining) ----------
    /** One entry per step of desc.iteration. */
    std::vector<TrainStepRate> step_rates;
    /** Some step streams bytes (the prefetcher has work at all). */
    bool streams_any = false;
    /** Largest prefetch transfer the staging capacity allows. */
    ByteCount prefetch_chunk = 0;
    // -- dynamic state ---------------------------------------------------
    std::size_t step = 0;
    Tick issued_in_step = 0;
    Tick ready_at = 0;
    bool in_flight = false;
    double staged_bytes = 0.0;
    double inflight_bytes = 0.0;
    std::size_t prefetch_step = 0;
    ByteCount prefetch_off = 0;
    /**
     * Synthesized DRAM addresses for the memory hierarchy: byte offset
     * of the prefetch walk (reads) and of the store-back stream
     * (writes) within the current training pass. Both rewind to 0 when
     * their walk wraps to step 0, so every pass re-touches the same
     * addresses -- the reuse the LLC can exploit. Ignored (never read)
     * by the passthrough hierarchy.
     */
    ByteCount mem_read_cursor = 0;
    ByteCount mem_store_cursor = 0;
    std::uint64_t iterations = 0;
    /** Iterations durably saved by the last checkpoint (recovery). */
    std::uint64_t committed_iterations = 0;
    /**
     * Bumped on every rollback/reset; in-flight prefetch completions
     * and MMU chunks from an older epoch are stale and ignored.
     */
    std::uint64_t epoch = 0;
};

/**
 * FIFO port between the batch former (producer) and the instruction
 * dispatcher / datapath (consumers). Iteration order is arrival order;
 * retirement erases the batch wherever it sits, preserving the order
 * of the rest -- the scan-based scheduling policies depend on it.
 *
 * Backed by a flat vector: the instruction dispatcher's ready-batch
 * scan is the simulator's single hottest loop, and contiguous pointer
 * iteration is several times cheaper than std::deque's segmented
 * iterators. The queue is short (a handful of in-flight batches), so
 * the O(n) erase in retire() is a small memmove.
 */
class BatchQueue
{
  public:
    void push(InfBatch *b) { q.push_back(b); }

    /** Remove @p b; @return false when it was not queued. */
    bool
    retire(InfBatch *b)
    {
        auto it = std::find(q.begin(), q.end(), b);
        if (it == q.end())
            return false;
        q.erase(it);
        return true;
    }

    std::size_t size() const { return q.size(); }
    bool empty() const { return q.empty(); }
    void clear() { q.clear(); }

    std::vector<InfBatch *>::const_iterator begin() const
    {
        return q.begin();
    }
    std::vector<InfBatch *>::const_iterator end() const
    {
        return q.end();
    }

  private:
    std::vector<InfBatch *> q;
};

} // namespace sim
} // namespace equinox

#endif // EQUINOX_SIM_BLOCKS_INF_TYPES_HH
