/**
 * @file
 * MMU cycle-usage accounting for the Figure 8 breakdown.
 *
 * Every MMU cycle of a simulation is attributed to exactly one of four
 * categories, matching the paper:
 *   Working -- cycles computing real (non-padded) operand rows,
 *   Dummy   -- cycles computing padding added by adaptive batching,
 *   Idle    -- cycles with no instruction in the array,
 *   Other   -- waste from partial tiles (dimension mismatch), buffer-port
 *              contention, and dependence stalls.
 */

#ifndef EQUINOX_STATS_CYCLE_BREAKDOWN_HH
#define EQUINOX_STATS_CYCLE_BREAKDOWN_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/logging.hh"

namespace equinox
{
namespace stats
{

/** The four Figure-8 cycle categories. */
enum class CycleClass : unsigned
{
    Working = 0,
    Dummy,
    Idle,
    Other,
    NumClasses,
};

/** Human-readable label for a category. */
const char *cycleClassName(CycleClass c);

/**
 * Accumulates fractional MMU cycles per category.
 *
 * Fractional charging lets a single tile instruction split its occupancy
 * between Working (real rows), Dummy (padded rows) and Other (partial-tile
 * waste) according to the operand geometry.
 */
class CycleBreakdown
{
  public:
    /**
     * Charge @p cycles to category @p c. Inline: the datapath charges
     * up to four categories per MMU chunk.
     */
    void
    add(CycleClass c, double cycles)
    {
        EQX_ASSERT(c < CycleClass::NumClasses, "bad cycle class");
        EQX_ASSERT(cycles >= 0.0, "negative cycle charge: ", cycles);
        cycles_[static_cast<std::size_t>(c)] += cycles;
    }

    /** Total cycles attributed to @p c. */
    double get(CycleClass c) const;

    /** Sum over all categories. */
    double total() const;

    /** Fraction of the total in category @p c; 0 when empty. */
    double fraction(CycleClass c) const;

    void reset();

    /** Merge another breakdown into this one. */
    CycleBreakdown &operator+=(const CycleBreakdown &other);

    /** One-line summary, e.g. for logs. */
    std::string summary() const;

  private:
    static constexpr std::size_t kN =
        static_cast<std::size_t>(CycleClass::NumClasses);
    std::array<double, kN> cycles_{};
};

} // namespace stats
} // namespace equinox

#endif // EQUINOX_STATS_CYCLE_BREAKDOWN_HH
