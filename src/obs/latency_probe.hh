/**
 * @file
 * LatencyProbe: exact per-request latency percentiles reconstructed
 * purely from trace events.
 *
 * The Datapath emits one RequestRetired event per request in the
 * measured window, carrying the request's arrival-to-retire span in
 * cycles (payload `a`). The probe accumulates those spans into exact
 * percentile trackers, overall and per service -- so a trace consumer
 * gets the same p50/p99/max the SimResult reports, without touching
 * any simulator state. tests/test_obs.cc checks the match is exact.
 */

#ifndef EQUINOX_OBS_LATENCY_PROBE_HH
#define EQUINOX_OBS_LATENCY_PROBE_HH

#include <string>
#include <vector>

#include "sim/blocks/trace.hh"
#include "stats/histogram.hh"

namespace equinox
{
namespace obs
{

class MetricsSnapshot;

/** Trace sink computing exact request-latency percentiles. */
class LatencyProbe : public sim::TraceSink
{
  public:
    void record(const sim::TraceEvent &ev) override;

    /** Arrival-to-retire spans in cycles (measured window). */
    const stats::LatencyTracker &cycles() const { return all_; }

    /** Per-service spans; nullptr when the service retired nothing. */
    const stats::LatencyTracker *serviceCycles(ContextId ctx) const;

    /** The percentile report, converted to seconds at @p frequency_hz. */
    struct Report
    {
        std::uint64_t count = 0;
        double mean_s = 0.0;
        double p50_s = 0.0;
        double p90_s = 0.0;
        double p99_s = 0.0;
        double max_s = 0.0;
    };
    Report report(double frequency_hz) const;

    /** Add the report under "latency.<name>" in @p snap. */
    void addTo(MetricsSnapshot &snap, const std::string &name,
               double frequency_hz) const;

    void clear();

  private:
    stats::LatencyTracker all_;
    std::vector<stats::LatencyTracker> per_service_;
};

} // namespace obs
} // namespace equinox

#endif // EQUINOX_OBS_LATENCY_PROBE_HH
