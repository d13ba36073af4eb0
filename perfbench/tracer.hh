/**
 * @file
 * Host-time spans for the perfbench traced run.
 *
 * The benchmark wraps each call it makes into a library layer in a
 * span (layer name, start, end, the span that caused it) and records
 * counts at the same boundaries. Spans live in memory and are written
 * out once, when the run ends, as a Chrome/Perfetto trace. A null
 * Tracer pointer means "untraced": the ScopedSpan guard then costs one
 * branch.
 *
 * Spans are grouped into passes: pass 0 is set-up, every later pass is
 * one traced pass over the workload's operations.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One timed call into a layer. */
struct Span
{
    /** Layer name; must have static storage (a string literal). */
    const char *layer = "";
    Clock::time_point start;
    Clock::time_point end;
    /** Index of the enclosing span, or -1 at the top of a pass. */
    std::int64_t parent = -1;
    std::size_t pass = 0;

    double seconds() const
    {
        return std::chrono::duration<double>(end - start).count();
    }
};

/** What one layer did in one pass. */
struct LayerTotals
{
    std::size_t calls = 0;
    /** Summed span durations (children included). */
    double busy_s = 0.0;
    /** busy_s minus the time covered by direct child spans. */
    double self_s = 0.0;
};

/** In-memory span and counter recorder. */
class Tracer
{
  public:
    /** Start a new pass; later spans and counts belong to it. */
    void startPass();
    std::size_t pass() const { return pass_; }

    /** Open a span of @p layer under the innermost open span. */
    std::size_t open(const char *layer);
    /** Close the span open() returned; spans close innermost first. */
    void close(std::size_t id);

    /** Add @p v to counter @p name of the current pass. */
    void count(const std::string &name, double v);

    /** Counter @p name of pass @p p (0 when never counted). */
    double counter(std::size_t p, const std::string &name) const;

    /** Per-layer totals of pass @p p. */
    std::map<std::string, LayerTotals> totals(std::size_t p) const;

    /** Durations of every span of @p layer, across all passes. */
    std::vector<double> durations(const std::string &layer) const;

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Write every span as a Chrome trace ("X" events, microseconds
     * from the first span, the pass as tid and the parent index in
     * args); false when @p path cannot be written.
     */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
    std::vector<std::map<std::string, double>> counters_{1};
    std::size_t pass_ = 0;
};

/** RAII span; a null tracer records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *layer) : tracer_(tracer)
    {
        if (tracer_)
            id_ = tracer_->open(layer);
    }
    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    std::size_t id_ = 0;
};

/** Count, median and tail of many per-call timings. */
struct CallStats
{
    std::size_t calls = 0;
    double p50_s = 0.0;
    /**
     * The highest of the p99.9 / p99 / p90 quantiles that leaves at
     * least ten samples beyond it; the median when fewer than twenty
     * samples exist.
     */
    double tail_s = 0.0;
    double tail_q = 0.5;
};

CallStats callStats(const std::vector<double> &durations);

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
