#include "stats/cycle_breakdown.hh"

#include <sstream>

#include "common/logging.hh"

namespace equinox
{
namespace stats
{

const char *
cycleClassName(CycleClass c)
{
    switch (c) {
      case CycleClass::Working: return "Working";
      case CycleClass::Dummy: return "Dummy";
      case CycleClass::Idle: return "Idle";
      case CycleClass::Other: return "Other";
      default: return "?";
    }
}

double
CycleBreakdown::get(CycleClass c) const
{
    EQX_ASSERT(c < CycleClass::NumClasses, "bad cycle class");
    return cycles_[static_cast<std::size_t>(c)];
}

double
CycleBreakdown::total() const
{
    double t = 0.0;
    for (double v : cycles_)
        t += v;
    return t;
}

double
CycleBreakdown::fraction(CycleClass c) const
{
    double t = total();
    if (t <= 0.0)
        return 0.0;
    return get(c) / t;
}

void
CycleBreakdown::reset()
{
    cycles_.fill(0.0);
}

CycleBreakdown &
CycleBreakdown::operator+=(const CycleBreakdown &other)
{
    for (std::size_t i = 0; i < kN; ++i)
        cycles_[i] += other.cycles_[i];
    return *this;
}

std::string
CycleBreakdown::summary() const
{
    std::ostringstream oss;
    for (std::size_t i = 0; i < kN; ++i) {
        auto c = static_cast<CycleClass>(i);
        if (i)
            oss << " ";
        oss << cycleClassName(c) << "=" << fraction(c) * 100.0 << "%";
    }
    return oss.str();
}

} // namespace stats
} // namespace equinox
