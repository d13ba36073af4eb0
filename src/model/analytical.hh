/**
 * @file
 * First-order area / power / performance models of section 4.1
 * (Equations 1-3), evaluated per design point.
 *
 * The formulas live once, in AnalyticalModel::Cell, which fixes the
 * array batch dimension n and the frequency f and hoists every term that
 * depends only on them. The design-space sweep walks w over one Cell per
 * (n, f) grid cell; the per-design methods of AnalyticalModel build a
 * Cell and evaluate through it, so both give the same bits.
 */

#ifndef EQUINOX_MODEL_ANALYTICAL_HH
#define EQUINOX_MODEL_ANALYTICAL_HH

#include "arith/gemm.hh"
#include "model/tech_params.hh"

namespace equinox
{
namespace model
{

/** One candidate accelerator design. */
struct DesignPoint
{
    unsigned n = 0;
    unsigned m = 0;
    unsigned w = 0;
    double frequency_hz = 0.0;
    arith::Encoding encoding = arith::Encoding::Hbfp8;

    double area_mm2 = 0.0;
    double power_w = 0.0;
    /** Peak arithmetic throughput, Eq. 3 (ops/s). */
    double throughput_ops = 0.0;
    /** LSTM batch-of-n service time (seconds). */
    double service_time_s = 0.0;
    bool pareto = false;
};

/** Evaluates Equations 1-3 for one encoding. */
class AnalyticalModel
{
  public:
    /**
     * Equations 1-3 at fixed (n, f). The constructor computes the
     * (n, f)-invariant terms (area budget, power headroom, energy scale,
     * budget cycles) and copies the ALU/SRAM constants; each method then
     * evaluates its equation for one (m, w) with the same IEEE
     * operations, in the same order, as the equation written out.
     */
    class Cell
    {
      public:
        Cell(const AnalyticalModel &model, unsigned n, double f);

        /** Eq. 1 at (m, w); independent of f. */
        double area(unsigned m, unsigned w) const;
        /** Eq. 2 at (m, w). */
        double power(unsigned m, unsigned w) const;
        /** Eq. 3 at (m, w). */
        double throughput(unsigned m, unsigned w) const;
        /** Largest m under both envelopes at w; 0 when m = 1 misses. */
        unsigned maxM(unsigned w) const;

      private:
        double n_;
        /** n * n. */
        double nn_;
        double f_;
        /** f times the energy scale at f. */
        double f_scale_;
        double bpv_;
        double a_alu_;
        double e_alu_;
        double e_sram_byte_;
        double sram_area_;
        double a_dram_;
        double p_dram_;
        double sram_static_;
        /** Die area left for ALUs (Eq. 1 with m n^2 w = 0). */
        double area_budget_;
        /** Power left for dynamic energy (Eq. 2 at zero activity). */
        double p_avail_;
        /** p_avail_ in energy per cycle at f. */
        double budget_cycles_;
    };

    AnalyticalModel(TechParams tech_params, arith::Encoding enc);

    /** The evaluator of the (n, f) grid cell. */
    Cell cell(unsigned n, double f) const { return Cell(*this, n, f); }

    /** Eq. 1: A = m n^2 w a_alu + A_sram + A_dram [mm^2]. */
    double area(unsigned n, unsigned m, unsigned w) const;

    /**
     * Eq. 2: P = f (m n^2 w e_alu + e_sram (w n + m w n + m n))
     *            + P_dram + P_static [W], with the near-threshold
     * voltage/frequency energy scaling applied to the dynamic terms.
     */
    double power(unsigned n, unsigned m, unsigned w, double f) const;

    /** Eq. 3: T = 2 m n^2 w f [ops/s]. */
    double throughput(unsigned n, unsigned m, unsigned w, double f) const;

    /** True when the design fits both envelopes. */
    bool feasible(unsigned n, unsigned m, unsigned w, double f) const;

    /**
     * Largest m for given (n, w, f) under both envelopes;
     * 0 when even m = 1 does not fit.
     */
    unsigned maxM(unsigned n, unsigned w, double f) const;

    const TechParams &tech() const { return tp; }
    arith::Encoding encoding() const { return enc_; }

  private:
    TechParams tp;
    arith::Encoding enc_;
};

} // namespace model
} // namespace equinox

#endif // EQUINOX_MODEL_ANALYTICAL_HH
