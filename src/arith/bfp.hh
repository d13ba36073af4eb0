/**
 * @file
 * Block floating point: a vector of narrow fixed-point mantissas sharing a
 * single exponent, the building block of HBFP (Drumond et al., NeurIPS'18).
 *
 * Equinox's hbfp8 datapath uses 8-bit mantissas with a 12-bit shared
 * exponent; two blocks are multiplied as an integer dot product plus an
 * exponent addition, accumulating into a 25-bit fixed-point register.
 */

#ifndef EQUINOX_ARITH_BFP_HH
#define EQUINOX_ARITH_BFP_HH

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace equinox
{
namespace arith
{

/** Static parameters of a BFP encoding. */
struct BfpFormat
{
    unsigned mantissa_bits = 8;  //!< total signed mantissa width
    unsigned exponent_bits = 12; //!< shared-exponent width (biased)
    unsigned accumulator_bits = 25; //!< systolic-array accumulator width

    /** Largest representable mantissa magnitude. */
    std::int32_t
    mantissaMax() const
    {
        return (std::int32_t{1} << (mantissa_bits - 1)) - 1;
    }

    /** Most negative representable shared exponent. */
    std::int32_t
    exponentMin() const
    {
        return -(std::int32_t{1} << (exponent_bits - 1));
    }

    /** Most positive representable shared exponent. */
    std::int32_t
    exponentMax() const
    {
        return (std::int32_t{1} << (exponent_bits - 1)) - 1;
    }
};

/** The canonical Equinox encoding: hbfp8. */
BfpFormat hbfp8Format();

/**
 * Quantize one strip of @p len values into a block under @p fmt: reads
 * in[i * stride] and writes its mantissa to out[i * stride], so a GEMM
 * operand quantizes in place into a same-layout int16 panel (a row strip
 * with stride 1, a column strip with stride = row length).
 *
 * Non-finite inputs are defined: a non-finite block maximum saturates the
 * exponent to fmt.exponentMax(), +-inf maps to +-mantissaMax() and NaN to
 * 0. A block of zeros (or only NaNs) takes fmt.exponentMin().
 *
 * @return the strip's shared exponent
 */
std::int32_t bfpQuantizeStrip(const float *in, std::size_t stride,
                              std::size_t len, const BfpFormat &fmt,
                              std::int16_t *out);

/**
 * Shared exponent of a block whose largest finite magnitude is @p max_abs
 * (NaNs never pick it): fmt.exponentMin() for 0, fmt.exponentMax() for
 * inf, else the smallest e with every mantissa in range. bfpQuantizeStrip
 * and the GEMM's panel quantizers all take it from here.
 */
std::int32_t bfpSharedExponent(float max_abs, const BfpFormat &fmt);

/** std::ldexp(1.0, n), built from its bits where 2^n is a normal double. */
inline double
exactPow2(int n)
{
    if (n >= -1022 && n <= 1023)
        return std::bit_cast<double>(static_cast<std::uint64_t>(n + 1023)
                                     << 52);
    return std::ldexp(1.0, n);
}

/**
 * std::nearbyint(x) in the default rounding mode, for |x| < 2^51: adding
 * and subtracting 1.5 * 2^52 rounds x to an integer, ties to even.
 */
inline double
roundHalfEven(double x)
{
    constexpr double kRoundHalfEven = 0x1.8p52;
    return (x + kRoundHalfEven) - kRoundHalfEven;
}

/** The factor that scales a value of a block with exponent @p e to its
 *  mantissa: 2^-(e - (mantissa_bits - 1)), zero when that underflows. */
inline double
bfpMantissaScale(std::int32_t e, const BfpFormat &fmt)
{
    return exactPow2(-(e - static_cast<int>(fmt.mantissa_bits - 1)));
}

/**
 * Round v * scale to a mantissa in [-mmax, mmax], ties to even. A
 * non-finite product (v inf or NaN, or inf times a zero scale) maps to
 * +-mmax for +-inf and to 0 for NaN.
 */
inline std::int16_t
bfpQuantizeValue(float v, double scale, double mmax)
{
    double x = static_cast<double>(v) * scale;
    if (!std::isfinite(x))
        x = std::isnan(v) ? 0.0 : std::copysign(mmax, v);
    // roundHalfEven leaves a larger |x| than 2^51 larger than mmax, so the
    // clamp equals clamping nearbyint(x), and it keeps the integer cast in
    // range.
    return static_cast<std::int16_t>(
        std::clamp(roundHalfEven(x), -mmax, mmax));
}

/** Output columns one bfpDotTile call produces at most. */
inline constexpr std::size_t kBfpDotTile = 8;

/**
 * Whether a @p len long mantissa dot under @p fmt can never clip: when
 * len * mantissaMax()^2 fits the register and int32, no prefix sum (nor
 * any partial sum of its products) can reach either limit.
 */
bool bfpDotCannotClip(const BfpFormat &fmt, std::size_t len);

/**
 * Integer dot products of one mantissa strip @p a (contiguous, @p len
 * long) against @p cols <= kBfpDotTile mantissa columns of @p b (element
 * p of column c at b[p * ldb + c]), accumulated the way the systolic array
 * does: each product added in order into a saturating register of
 * fmt.accumulator_bits. Writes the register values to acc[0 .. cols).
 *
 * When bfpDotCannotClip(fmt, len), the kernel accumulates in int32
 * without clamping; otherwise it clamps after every step.
 */
void bfpDotTile(const std::int16_t *a, const std::int16_t *b,
                std::size_t ldb, std::size_t len, std::size_t cols,
                const BfpFormat &fmt, std::int64_t *acc);

/**
 * Decode a bfpDotTile register value of two blocks with shared exponents
 * @p exp_a and @p exp_b to binary32: acc * 2^(exp_a + exp_b - 2 *
 * (mantissa_bits - 1)), rounded once to float.
 */
inline float
bfpDotValue(std::int64_t acc, std::int32_t exp_a, std::int32_t exp_b,
            const BfpFormat &fmt)
{
    const int shift =
        exp_a + exp_b - 2 * static_cast<int>(fmt.mantissa_bits - 1);
    const double v = static_cast<double>(acc);
    // |v| < 2^63, so for these shifts v * 2^shift is a normal double:
    // the product is exact and equals std::ldexp, without the call.
    if (shift >= -1022 && shift <= 1023 - 63) {
        const auto pow2 = std::bit_cast<double>(
            static_cast<std::uint64_t>(shift + 1023) << 52);
        return static_cast<float>(v * pow2);
    }
    return static_cast<float>(std::ldexp(v, shift));
}

/**
 * One block: narrow mantissas sharing one exponent.
 *
 * A value i decodes as mantissa[i] * 2^exponent / 2^(mantissa_bits-1),
 * i.e. mantissas are fixed point in (-1, 1) scaled by 2^exponent.
 */
class BfpBlock
{
  public:
    BfpBlock() = default;

    /** Quantize @p values into the block under @p fmt. */
    static BfpBlock quantize(std::span<const float> values,
                             const BfpFormat &fmt);

    /** Decode back to binary32. */
    std::vector<float> dequantize() const;

    /** Decode a single element. */
    float dequantize(std::size_t i) const;

    std::size_t size() const { return mantissas.size(); }
    std::int32_t exponent() const { return exponent_; }
    std::int32_t mantissa(std::size_t i) const { return mantissas.at(i); }
    const BfpFormat &format() const { return fmt_; }

    /**
     * Integer dot product of two equally sized blocks, the way the systolic
     * array computes it: int8 x int8 products accumulated into a saturating
     * accumulator of fmt.accumulator_bits, exponents added.
     *
     * @return the dot product decoded to binary32 (including any
     *         saturation that occurred in the narrow accumulator).
     */
    static float dot(const BfpBlock &a, const BfpBlock &b);

    /**
     * Worst-case absolute quantization error for a block with shared
     * exponent e under @p fmt (half a mantissa ulp).
     */
    static double quantizationStep(std::int32_t exponent,
                                   const BfpFormat &fmt);

  private:
    BfpFormat fmt_;
    std::int32_t exponent_ = 0;
    std::vector<std::int16_t> mantissas; // int16 holds up to 15-bit formats
};

} // namespace arith
} // namespace equinox

#endif // EQUINOX_ARITH_BFP_HH
