#include "model/analytical.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace equinox
{
namespace model
{

AnalyticalModel::AnalyticalModel(TechParams tech_params,
                                 arith::Encoding enc)
    : tp(tech_params), enc_(enc)
{
}

AnalyticalModel::Cell::Cell(const AnalyticalModel &model, unsigned n,
                            double f)
{
    const TechParams &tp = model.tp;
    const arith::Encoding enc = model.enc_;
    n_ = static_cast<double>(n);
    nn_ = n_ * n_;
    f_ = f;
    f_scale_ = f * tp.energyScaleAt(f);
    bpv_ = tp.bytesPerValue(enc);
    a_alu_ = tp.aluArea(enc);
    e_alu_ = tp.aluEnergy(enc);
    e_sram_byte_ = tp.e_sram_byte;
    sram_area_ = tp.sramArea();
    a_dram_ = tp.a_dram;
    p_dram_ = tp.p_dram;
    sram_static_ = tp.sramStaticPower();
    area_budget_ = tp.die_area - sram_area_ - a_dram_;
    p_avail_ = tp.power_budget - p_dram_ - sram_static_;
    budget_cycles_ = p_avail_ / f_scale_;
}

double
AnalyticalModel::Cell::area(unsigned m, unsigned w) const
{
    double alus = static_cast<double>(m) * n_ * n_ * w;
    return alus * a_alu_ + sram_area_ + a_dram_;
}

double
AnalyticalModel::Cell::power(unsigned m, unsigned w) const
{
    const double mm = static_cast<double>(m);
    const double ww = static_cast<double>(w);
    double alus = mm * n_ * n_ * ww;
    // Buffer traffic per cycle (values): activations w*n, weights m*w*n,
    // outputs m*n -- Eq. 2's (wn + mwn + mn) term.
    double traffic_values = ww * n_ + mm * ww * n_ + mm * n_;
    double traffic_bytes = traffic_values * bpv_;
    double dynamic = f_scale_ * (alus * e_alu_ +
                                 traffic_bytes * e_sram_byte_);
    return dynamic + p_dram_ + sram_static_;
}

double
AnalyticalModel::Cell::throughput(unsigned m, unsigned w) const
{
    return 2.0 * static_cast<double>(m) * n_ * n_ * w * f_;
}

unsigned
AnalyticalModel::Cell::maxM(unsigned w) const
{
    const double ww = static_cast<double>(w);

    // Area bound: m n^2 w a_alu <= die - sram - dram.
    if (area_budget_ <= 0.0)
        return 0;
    double m_area = area_budget_ / (nn_ * ww * a_alu_);

    // Power bound: solve the linear-in-m Eq. 2 for m.
    if (p_avail_ <= 0.0)
        return 0;
    double per_cycle_fixed = ww * n_ * bpv_ * e_sram_byte_; // wn term
    double per_cycle_per_m =
        nn_ * ww * e_alu_ +
        (ww * n_ + n_) * bpv_ * e_sram_byte_; // mwn + mn terms
    if (budget_cycles_ <= per_cycle_fixed)
        return 0;
    double m_power = (budget_cycles_ - per_cycle_fixed) / per_cycle_per_m;

    double m_best = std::floor(std::min(m_area, m_power));
    if (m_best < 1.0)
        return 0;
    return static_cast<unsigned>(m_best);
}

double
AnalyticalModel::area(unsigned n, unsigned m, unsigned w) const
{
    // Eq. 1 does not depend on the frequency.
    return cell(n, tp.f_max).area(m, w);
}

double
AnalyticalModel::power(unsigned n, unsigned m, unsigned w, double f) const
{
    return cell(n, f).power(m, w);
}

double
AnalyticalModel::throughput(unsigned n, unsigned m, unsigned w,
                            double f) const
{
    return cell(n, f).throughput(m, w);
}

bool
AnalyticalModel::feasible(unsigned n, unsigned m, unsigned w,
                          double f) const
{
    const Cell c = cell(n, f);
    return c.area(m, w) <= tp.die_area && c.power(m, w) <= tp.power_budget;
}

unsigned
AnalyticalModel::maxM(unsigned n, unsigned w, double f) const
{
    return cell(n, f).maxM(w);
}

} // namespace model
} // namespace equinox
