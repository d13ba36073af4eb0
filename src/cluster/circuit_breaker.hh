/**
 * @file
 * Per-replica circuit breaker + health-check state machine.
 *
 * Classic three-state breaker driven by the router's own causal
 * signals: a health probe (rate-limited to one observation per
 * probe_interval_cycles) reports whether the replica is inside an
 * outage window and whether its ReplicaEstimator window-p99 has blown
 * past the latency trip threshold.
 *
 *   Closed --(trip_failures consecutive bad probes)--> Open
 *   Open --(cooldown_cycles elapse)--> HalfOpen
 *   HalfOpen --(halfopen_probes consecutive good probes)--> Closed
 *   HalfOpen --(one bad probe)--> Open (cooldown restarts)
 *
 * While Open the routing policies skip the replica via the Router's
 * availability filter; HalfOpen lets traffic through so the probes
 * have something to observe. Everything is deterministic: state moves
 * only on observe()/allows() calls at event ticks, never on wall time.
 */

#ifndef EQUINOX_CLUSTER_CIRCUIT_BREAKER_HH
#define EQUINOX_CLUSTER_CIRCUIT_BREAKER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace equinox
{
namespace cluster
{

/** Knobs of one replica's breaker (defaults: disabled). */
struct BreakerConfig
{
    bool enabled = false;
    /** Consecutive bad health probes that trip Closed -> Open. */
    unsigned trip_failures = 4;
    /** Minimum spacing between health observations. */
    Tick probe_interval_cycles = 2000;
    /** How long an Open breaker waits before probing (HalfOpen). */
    Tick cooldown_cycles = 100000;
    /** Consecutive good probes that close a HalfOpen breaker. */
    unsigned halfopen_probes = 3;
    /**
     * Replica window-p99 latency estimate (cycles) above which a
     * probe counts as bad even when the replica is up. 0 disables the
     * latency signal (outages alone drive the breaker).
     */
    double latency_trip_cycles = 0.0;

    /** Actionable configuration errors; empty when usable. */
    std::vector<std::string> validate() const;
};

/** One replica's breaker state machine. */
class CircuitBreaker
{
  public:
    enum class State
    {
        Closed,
        Open,
        HalfOpen,
    };

    explicit CircuitBreaker(const BreakerConfig &cfg);

    /**
     * Feed one health observation at @p t (@p healthy from the
     * outage + latency signals). Observations closer than
     * probe_interval_cycles to the last accepted one are ignored, so
     * a burst of arrivals counts as one probe.
     */
    void observe(Tick t, bool healthy);

    /** Whether observe() at @p t would be accepted as a probe. */
    bool
    probeDue(Tick t) const
    {
        return !probed_ || t >= last_probe_ + cfg_.probe_interval_cycles;
    }

    /**
     * Whether routing may use the replica at @p t. Advances
     * Open -> HalfOpen once the cooldown has elapsed, so callers see
     * the probe window without a separate clock.
     */
    bool allows(Tick t);

    State state() const { return state_; }

    /** Closed -> Open trips. */
    std::uint64_t opens() const { return opens_; }
    /** HalfOpen -> Open re-trips. */
    std::uint64_t reopens() const { return reopens_; }
    /** HalfOpen -> Closed recoveries. */
    std::uint64_t closes() const { return closes_; }

  private:
    void trip(Tick t, bool reopen);

    BreakerConfig cfg_;
    State state_ = State::Closed;
    unsigned consecutive_failures_ = 0;
    unsigned probe_successes_ = 0;
    Tick open_until_ = 0;
    Tick last_probe_ = 0;
    bool probed_ = false;
    std::uint64_t opens_ = 0;
    std::uint64_t reopens_ = 0;
    std::uint64_t closes_ = 0;
};

/** Stable name ("closed", "open", "half_open") for labels and JSON. */
const char *breakerStateName(CircuitBreaker::State state);

} // namespace cluster
} // namespace equinox

#endif // EQUINOX_CLUSTER_CIRCUIT_BREAKER_HH
