/**
 * @file
 * ArrivalFeed: the routing pipeline as a pull source of per-replica
 * arrival ticks.
 *
 * FleetRouter::route and ControlPlane::route materialize one trace per
 * replica over the whole horizon before any replica runs, while a
 * replica stops reading its trace once its measured window closes. The
 * feed owns the candidate ArrivalStream and steps the same router (or
 * the control plane over it) one candidate (one dispatch round) at a
 * time, and only as far as a replica asks: next(r) routes forward
 * until replica r's FIFO buffer holds a tick. Every candidate is still
 * routed and counted, in the same order, so every count and every
 * replica's tick sequence equals route()'s; only the ticks a replica
 * will read are stored.
 *
 * Exactness (DESIGN.md section 2.4): routing is a causal function of
 * the candidate stream in tick order, so advancing it lazily cannot
 * change a pick, and a replica reading its k-th tick sees route()'s
 * traces[r][k]. release(r) stops buffering for a replica whose run has
 * returned; routeToEnd() routes the rest of the stream, counting only.
 *
 * Threads: replicas may pull concurrently (Cluster::run at jobs > 1).
 * Each replica reads a private buffer without locking; when it runs
 * dry, the replica takes the feed's one mutex, swaps in the ticks
 * routed to it meanwhile, and routes forward itself if there are none.
 * Whichever thread advances the router, it advances it in global tick
 * order, so the routing is the same at any job count.
 */

#ifndef EQUINOX_CLUSTER_ARRIVAL_FEED_HH
#define EQUINOX_CLUSTER_ARRIVAL_FEED_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "cluster/control_plane.hh"
#include "cluster/fleet.hh"
#include "common/random.hh"
#include "sim/accelerator_types.hh"

namespace equinox
{
namespace cluster
{

/** Per-replica arrival ticks routed on demand. */
class ArrivalFeed
{
  public:
    /**
     * Route stream 0 of ArrivalStream(@p rate_per_cycle, @p seed, 0,
     * @p max_ticks, @p surges) through @p router, or through @p cp (a
     * stage over the same router) when it is not null. Both must
     * outlive the feed. Opens their routing pass.
     */
    ArrivalFeed(FleetRouter &router, ControlPlane *cp,
                double rate_per_cycle, std::uint64_t seed, Tick max_ticks,
                const std::vector<ArrivalSurge> &surges);

    /** Lanes point back at the feed. */
    ArrivalFeed(const ArrivalFeed &) = delete;
    ArrivalFeed &operator=(const ArrivalFeed &) = delete;

    /**
     * Store replica @p replica's next tick in @p t, routing forward
     * until it has one; false once the stream holds none for it.
     * Calls for one replica must come from one thread at a time.
     */
    bool next(std::size_t replica, Tick &t);

    /**
     * True when @p replica has a tick left to read (routing forward to
     * find out); the tick stays buffered for next().
     */
    bool hasNext(std::size_t replica);

    /** Replica @p replica's next() as a sim::ArrivalSource. */
    sim::ArrivalSource &source(std::size_t replica);

    /**
     * Stop buffering for @p replica and free its buffer; its later
     * assignments are still counted.
     */
    void release(std::size_t replica);

    /** Route the rest of the stream and close the routing pass. */
    void routeToEnd();

    // -- counts: final once routeToEnd() has returned ------------------

    /** Candidates assigned per replica (hedge duplicates included). */
    const std::vector<std::uint64_t> &assigned() const { return assigned_; }
    /** Candidates drawn from the global arrival process. */
    std::uint64_t generated() const;
    /** Candidates shed: the router's, or every control-plane shed. */
    std::uint64_t shed() const;
    /** Candidates whose first-choice replica or shard was skipped. */
    std::uint64_t rerouted() const;

    /**
     * Most ticks buffered at once over all replicas. Ticks a replica
     * has read stay counted until its next refill, as their storage
     * stays allocated.
     */
    std::uint64_t bufferHighWater() const { return high_water_; }

  private:
    /** One replica's FIFO buffer, and its ArrivalSource face. */
    struct Lane final : sim::ArrivalSource
    {
        Lane(ArrivalFeed &feed, std::size_t replica)
            : feed(feed), replica(replica)
        {
        }
        bool
        next(Tick &t) override
        {
            return feed.next(replica, t);
        }

        ArrivalFeed &feed;
        std::size_t replica;
        /** The replica's own ticks from `next` on; only its reader
         *  touches them. */
        std::vector<Tick> local;
        std::size_t next_local = 0;
        // -- guarded by mu_ -------------------------------------------
        /** Ticks routed to the replica since its last refill. */
        std::vector<Tick> inbox;
        bool released = false;
    };

    /** Refill @p lane's local buffer; false when none is left. */
    bool refill(Lane &lane);
    /** Route one step; false once the stream is done. Holds mu_. */
    bool advance();

    FleetRouter &router_;
    ControlPlane *cp_;
    ArrivalStream stream_;
    Tick max_ticks_;
    std::vector<Lane> lanes_;

    std::mutex mu_;
    bool done_ = false;
    std::vector<std::uint64_t> assigned_;
    std::uint64_t buffered_ = 0;
    std::uint64_t high_water_ = 0;
};

} // namespace cluster
} // namespace equinox

#endif // EQUINOX_CLUSTER_ARRIVAL_FEED_HH
