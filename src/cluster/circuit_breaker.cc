#include "cluster/circuit_breaker.hh"

#include <sstream>

#include "common/logging.hh"

namespace equinox
{
namespace cluster
{

const char *
breakerStateName(CircuitBreaker::State state)
{
    switch (state) {
    case CircuitBreaker::State::Closed:
        return "closed";
    case CircuitBreaker::State::Open:
        return "open";
    case CircuitBreaker::State::HalfOpen:
        return "half_open";
    }
    return "unknown";
}

std::vector<std::string>
BreakerConfig::validate() const
{
    std::vector<std::string> errors;
    if (!enabled)
        return errors;
    auto complain = [&errors](auto &&...parts) {
        std::ostringstream oss;
        (oss << ... << parts);
        errors.push_back(oss.str());
    };

    if (trip_failures == 0) {
        complain("breaker.trip_failures must be >= 1 when the breaker "
                 "is enabled; tripping on zero failures opens it "
                 "immediately and forever");
    }
    if (probe_interval_cycles == 0) {
        complain("breaker.probe_interval_cycles must be >= 1 when the "
                 "breaker is enabled, else every arrival is a probe "
                 "and one burst trips it");
    }
    if (cooldown_cycles == 0) {
        complain("breaker.cooldown_cycles must be >= 1 when the "
                 "breaker is enabled; an Open state that expires "
                 "instantly never sheds anything");
    }
    if (halfopen_probes == 0) {
        complain("breaker.halfopen_probes must be >= 1 when the "
                 "breaker is enabled, else HalfOpen closes without "
                 "evidence");
    }
    if (latency_trip_cycles < 0.0) {
        complain("breaker.latency_trip_cycles must be >= 0 (got ",
                 latency_trip_cycles, "); 0 disables the latency "
                 "signal");
    }
    return errors;
}

CircuitBreaker::CircuitBreaker(const BreakerConfig &cfg) : cfg_(cfg) {}

void
CircuitBreaker::trip(Tick t, bool reopen)
{
    state_ = State::Open;
    open_until_ = t + cfg_.cooldown_cycles;
    consecutive_failures_ = 0;
    probe_successes_ = 0;
    if (reopen)
        ++reopens_;
    else
        ++opens_;
}

void
CircuitBreaker::observe(Tick t, bool healthy)
{
    if (!cfg_.enabled)
        return;
    // Rate-limit: a burst of same-window arrivals is one probe.
    if (!probeDue(t))
        return;
    probed_ = true;
    last_probe_ = t;

    switch (state_) {
    case State::Closed:
        if (healthy) {
            consecutive_failures_ = 0;
        } else if (++consecutive_failures_ >= cfg_.trip_failures) {
            trip(t, false);
        }
        break;
    case State::Open:
        // Cooldown only; allows() moves Open -> HalfOpen.
        break;
    case State::HalfOpen:
        if (!healthy) {
            trip(t, true);
        } else if (++probe_successes_ >= cfg_.halfopen_probes) {
            state_ = State::Closed;
            consecutive_failures_ = 0;
            probe_successes_ = 0;
            ++closes_;
        }
        break;
    }
}

bool
CircuitBreaker::allows(Tick t)
{
    if (!cfg_.enabled)
        return true;
    if (state_ == State::Open) {
        if (t < open_until_)
            return false;
        state_ = State::HalfOpen;
        probe_successes_ = 0;
    }
    return true;
}

} // namespace cluster
} // namespace equinox
