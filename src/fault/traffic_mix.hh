/**
 * @file
 * TrafficMix: fleet-scale arrival-rate shapes on top of the candidate
 * generator.
 *
 * ChaosPlan perturbs a fleet with faults; a TrafficMix shapes what the
 * fleet is asked to serve: diurnal day/night swings, scheduled flash
 * crowds, and multi-tenant blends where each tenant class contributes
 * its own share of the base rate with its own modulation. Like chaos,
 * a mix is purely declarative: materializeTraffic() flattens the
 * composed rate profile into piecewise-constant SurgeWindows, which
 * the router-side Lewis-Shedler thinning (ArrivalStream, pulled one
 * candidate at a time by FleetRouter::route and ControlPlane::route)
 * consumes unchanged -- candidates are drawn at
 * the peak rate and thinned against the instantaneous factor.
 * Because the windows are non-overlapping, the router's
 * max-over-windows semantics reduce to "the factor of the window
 * containing t"; chaos flash crowds laid on top compose by max, not
 * product, matching the existing rule.
 *
 * The default-constructed mix shapes nothing: materializeTraffic()
 * returns no windows and the arrival stream is byte-identical to a
 * build without this subsystem.
 */

#ifndef EQUINOX_FAULT_TRAFFIC_MIX_HH
#define EQUINOX_FAULT_TRAFFIC_MIX_HH

#include <cstddef>
#include <string>
#include <vector>

#include "fault/chaos_plan.hh"

namespace equinox
{
namespace fault
{

/**
 * Smooth day/night arrival modulation: a raised cosine between 1x (the
 * trough) and peak_factor (the peak), discretized into
 * segments_per_period piecewise-constant steps per period so the
 * thinning path stays a pure function of the window list.
 */
struct DiurnalPolicy
{
    /** Length of one day/night cycle; 0 disables the modulation. */
    double period_s = 0.0;
    /** Rate multiplier at the peak of the cycle (>= 1). */
    double peak_factor = 2.0;
    /** Piecewise-constant steps per period (>= 2). */
    std::size_t segments_per_period = 16;
    /** Peak position as a fraction of the period in [0, 1). */
    double phase = 0.25;

    bool enabled() const { return period_s > 0.0; }
    /** Instantaneous multiplier at @p t_s in [1, peak_factor]. */
    double factorAt(double t_s) const;
};

/**
 * One tenant class: a fraction of the base traffic with its own
 * diurnal cycle and scheduled surges. The blended fleet factor is the
 * share-weighted average of the tenant factors, so tenants whose peaks
 * are out of phase flatten each other and a spiky minority tenant
 * moves the blend by its share only.
 */
struct TenantClass
{
    /** Label for docs and error messages. */
    std::string name = "tenant";
    /** Fraction of the base traffic this class contributes (> 0). */
    double share = 1.0;
    DiurnalPolicy diurnal;
    /** Scheduled surge windows private to this tenant. */
    std::vector<SurgeWindow> surges;
};

/** A complete declarative traffic shape for one run. */
struct TrafficMix
{
    /** Fleet-wide diurnal modulation. */
    DiurnalPolicy diurnal;
    /** Scheduled fleet-wide flash-crowd windows. */
    std::vector<SurgeWindow> flash_crowds;
    /** Tenant blend; empty = one implicit flat tenant. */
    std::vector<TenantClass> tenants;

    /** True when the mix shapes the arrival stream at all. */
    bool enabled() const;
    /** Actionable configuration errors; empty when usable. */
    std::vector<std::string> validate() const;
    /** Composed instantaneous multiplier at @p t_s (>= 1). */
    double factorAt(double t_s) const;
};

/**
 * Flatten @p mix into non-overlapping piecewise-constant surge
 * windows over [0, horizon_s), coalescing equal-factor neighbours and
 * dropping factor-1 spans. Pure function of (mix, horizon_s); an empty
 * result means the stream runs at the unshaped base rate.
 */
std::vector<SurgeWindow> materializeTraffic(const TrafficMix &mix,
                                            double horizon_s);

/** Names of the built-in traffic scenarios (bench/fleet_scaling). */
std::vector<std::string> trafficScenarioNames();

/**
 * A named traffic scenario sized to @p horizon_s of simulated time:
 *   - "diurnal": two day/night cycles peaking at 3x the base rate,
 *   - "flash_crowd": a mild diurnal swell with two scheduled crowd
 *     spikes (3x and 4x) riding on it,
 *   - "multi_tenant": a flat batch tenant, an interactive tenant with
 *     a strong diurnal cycle, and a small spiky tenant with private
 *     5x surges.
 * Dies on an unknown name (trafficScenarioNames() lists the valid
 * ones).
 */
TrafficMix trafficScenario(const std::string &name, double horizon_s);

} // namespace fault
} // namespace equinox

#endif // EQUINOX_FAULT_TRAFFIC_MIX_HH
