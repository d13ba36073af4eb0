#include "tracer.hh"

#include <cstdio>

#include "stats/histogram.hh"

namespace perfbench
{

void
Tracer::startPass()
{
    ++pass_;
    counters_.resize(pass_ + 1);
}

std::size_t
Tracer::open(const char *layer)
{
    Span s;
    s.layer = layer;
    s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    s.pass = pass_;
    spans_.push_back(s);
    open_.push_back(spans_.size() - 1);
    // Read the clock last so the bookkeeping above stays outside the
    // span.
    spans_.back().start = Clock::now();
    return spans_.size() - 1;
}

void
Tracer::close(std::size_t id)
{
    auto now = Clock::now();
    spans_[id].end = now;
    open_.pop_back();
}

void
Tracer::count(const std::string &name, double v)
{
    counters_[pass_][name] += v;
}

double
Tracer::counter(std::size_t p, const std::string &name) const
{
    if (p >= counters_.size())
        return 0.0;
    auto it = counters_[p].find(name);
    return it == counters_[p].end() ? 0.0 : it->second;
}

std::map<std::string, LayerTotals>
Tracer::totals(std::size_t p) const
{
    std::map<std::string, LayerTotals> out;
    for (const Span &s : spans_) {
        if (s.pass != p)
            continue;
        LayerTotals &t = out[s.layer];
        ++t.calls;
        t.busy_s += s.seconds();
        t.self_s += s.seconds();
        if (s.parent >= 0)
            out[spans_[s.parent].layer].self_s -= s.seconds();
    }
    return out;
}

std::vector<double>
Tracer::durations(const std::string &layer) const
{
    std::vector<double> out;
    for (const Span &s : spans_) {
        if (layer == s.layer)
            out.push_back(s.seconds());
    }
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("{\"traceEvents\":[", f);
    const Clock::time_point t0 =
        spans_.empty() ? Clock::time_point{} : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        double ts =
            std::chrono::duration<double, std::micro>(s.start - t0).count();
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"span\":%zu,\"parent\":%lld}}",
                     i ? "," : "", s.layer, s.pass, ts, s.seconds() * 1e6,
                     i, static_cast<long long>(s.parent));
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

CallStats
callStats(const std::vector<double> &durations)
{
    CallStats cs;
    cs.calls = durations.size();
    if (durations.empty())
        return cs;
    equinox::stats::LatencyTracker t;
    for (double d : durations)
        t.record(d);
    cs.p50_s = t.percentile(0.5);
    cs.tail_s = cs.p50_s;
    // Quantile q leaves n(1 - q) samples beyond it: ten needs n >= 10 /
    // (1 - q).
    const struct
    {
        double q;
        std::size_t min_calls;
    } tails[] = {{0.999, 10000}, {0.99, 1000}, {0.9, 100}};
    for (const auto &tail : tails) {
        if (cs.calls >= tail.min_calls) {
            cs.tail_s = t.percentile(tail.q);
            cs.tail_q = tail.q;
            break;
        }
    }
    return cs;
}

} // namespace perfbench
