/**
 * @file
 * Deterministic random-number utilities.
 *
 * All stochastic parts of the reproduction (Poisson arrivals, synthetic
 * datasets, weight initialisation) draw from explicitly seeded Rng instances
 * so that every experiment is bit-reproducible.
 */

#ifndef EQUINOX_COMMON_RANDOM_HH
#define EQUINOX_COMMON_RANDOM_HH

#include <cstdint>
#include <random>
#include <vector>

#include "common/types.hh"

namespace equinox
{

/**
 * A seeded random source with the distributions the project needs.
 *
 * Thin wrapper over std::mt19937_64; copyable so generators can fork
 * deterministic sub-streams.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x5EED5EEDull) : engine(seed) {}

    /** Uniform double in [0, 1). */
    double uniform() { return unit(engine); }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [lo, hi], inclusive. */
    std::uint64_t
    uniformInt(std::uint64_t lo, std::uint64_t hi)
    {
        std::uniform_int_distribution<std::uint64_t> dist(lo, hi);
        return dist(engine);
    }

    /** Standard normal sample. */
    double normal() { return gauss(engine); }

    /** Normal sample with given mean and stddev. */
    double normal(double mean, double sd) { return mean + sd * normal(); }

    /**
     * Exponential inter-arrival sample for a Poisson process.
     * @param rate events per unit time; must be positive.
     */
    double
    exponential(double rate)
    {
        std::exponential_distribution<double> dist(rate);
        return dist(engine);
    }

    /** Fork an independent deterministic sub-stream. */
    Rng
    fork()
    {
        return Rng(engine());
    }

    /** Access the raw engine for std:: distributions. */
    std::mt19937_64 &raw() { return engine; }

  private:
    std::mt19937_64 engine;
    std::uniform_real_distribution<double> unit{0.0, 1.0};
    std::normal_distribution<double> gauss{0.0, 1.0};
};

/** One arrival-rate surge window, in absolute ticks [from, to). */
struct ArrivalSurge
{
    Tick from = 0;
    Tick to = 0;
    /** Arrival-rate multiplier inside the window (>= 1). */
    double factor = 1.0;
};

/**
 * The open-loop Poisson arrival candidates of one stream, drawn one at
 * a time: the project's only arrival generator. Each (seed, stream)
 * pair seeds its own Rng; the stream draws exponential waits at
 * @p rate_per_cycle, advances by `Tick(wait) + 1` from tick 0, and ends
 * with the first candidate past @p max_ticks. The simulator's request
 * dispatcher draws service i's candidates from stream i (unbounded);
 * the cluster router draws the global stream 0 up to its horizon, so a
 * replica fed the router's ticks replays the single-accelerator run
 * that would have drawn them itself.
 *
 * With surge windows the stream is drawn at the peak rate (rate x max
 * factor) and thinned against the instantaneous rate (Lewis-Shedler),
 * so candidates inside a window arrive factor-times denser. One seeded
 * Rng drives both the waits and the acceptance draws; without surges
 * no acceptance draw is made.
 */
class ArrivalStream
{
  public:
    /** A stream that yields nothing. */
    ArrivalStream() = default;

    ArrivalStream(double rate_per_cycle, std::uint64_t seed,
                  std::uint64_t stream, Tick max_ticks,
                  const std::vector<ArrivalSurge> &surges = {});

    /**
     * Store the next candidate tick in @p t; false once the stream has
     * yielded its one-past-the-horizon candidate (at once when the
     * rate is <= 0).
     */
    bool next(Tick &t);

  private:
    double factorAt(Tick t) const;

    double draw_rate_ = 0.0;
    Tick max_ticks_ = 0;
    std::vector<ArrivalSurge> surges_;
    double peak_factor_ = 1.0;
    Rng rng_;
    Tick t_ = 0;
    bool done_ = true;
};

} // namespace equinox

#endif // EQUINOX_COMMON_RANDOM_HH
