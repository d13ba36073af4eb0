#include "arith/bfp.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace equinox
{
namespace arith
{

BfpFormat
hbfp8Format()
{
    return BfpFormat{8, 12, 25};
}

std::int32_t
bfpSharedExponent(float max_abs, const BfpFormat &fmt)
{
    if (max_abs == 0.0f)
        return fmt.exponentMin();
    if (!std::isfinite(max_abs))
        return fmt.exponentMax();

    // Smallest e with max_abs < 2^e, so that all scaled mantissas land in
    // (-1, 1). Rounding can still push the largest mantissa to
    // 2^(mbits-1); bump the exponent once in that case so the
    // round-to-nearest half-step error bound holds for every element.
    // log2 of a finite nonzero float lies in [-149, 128], so the cast
    // plus the fix-up for negative non-integers is std::floor, and every
    // power of two below is a normal double.
    const float l = std::log2(max_abs);
    int e = static_cast<int>(l);
    if (static_cast<float>(e) > l)
        --e;
    ++e;
    const double ratio = static_cast<double>(max_abs) * exactPow2(-e);
    if (roundHalfEven(ratio * exactPow2(fmt.mantissa_bits - 1)) >
        fmt.mantissaMax()) {
        ++e;
    }
    return std::clamp<int>(e, fmt.exponentMin(), fmt.exponentMax());
}

std::int32_t
bfpQuantizeStrip(const float *in, std::size_t stride, std::size_t len,
                 const BfpFormat &fmt, std::int16_t *out)
{
    EQX_ASSERT(fmt.mantissa_bits >= 2 && fmt.mantissa_bits <= 15,
               "unsupported mantissa width ", fmt.mantissa_bits);

    // std::max keeps the running maximum when handed a NaN, so NaNs never
    // pick the exponent.
    float max_abs = 0.0f;
    for (std::size_t i = 0; i < len; ++i)
        max_abs = std::max(max_abs, std::abs(in[i * stride]));

    const std::int32_t e = bfpSharedExponent(max_abs, fmt);
    if (max_abs == 0.0f) {
        for (std::size_t i = 0; i < len; ++i)
            out[i * stride] = 0;
        return e;
    }
    const double scale = bfpMantissaScale(e, fmt);
    const double mmax = fmt.mantissaMax();
    for (std::size_t i = 0; i < len; ++i)
        out[i * stride] = bfpQuantizeValue(in[i * stride], scale, mmax);
    return e;
}

bool
bfpDotCannotClip(const BfpFormat &fmt, std::size_t len)
{
    const std::int64_t acc_max =
        (std::int64_t{1} << (fmt.accumulator_bits - 1)) - 1;
    const std::int64_t mmax = fmt.mantissaMax();
    const std::int64_t limit = std::min<std::int64_t>(
        acc_max, std::numeric_limits<std::int32_t>::max());
    // len <= limit < 2^31 first, so len * mmax^2 < 2^59 cannot overflow.
    return len <= static_cast<std::size_t>(limit) &&
           static_cast<std::int64_t>(len) * mmax * mmax <= limit;
}

void
bfpDotTile(const std::int16_t *a, const std::int16_t *b, std::size_t ldb,
           std::size_t len, std::size_t cols, const BfpFormat &fmt,
           std::int64_t *acc)
{
    EQX_ASSERT(cols <= kBfpDotTile, "BFP dot tile too wide: ", cols);

    if (bfpDotCannotClip(fmt, len)) {
        // Every prefix sum is at most len * mmax^2 <= limit in magnitude:
        // the register never clips and int32 never overflows.
        std::int32_t sum[kBfpDotTile] = {};
        if (cols == kBfpDotTile) {
            for (std::size_t p = 0; p < len; ++p) {
                const std::int32_t av = a[p];
                const std::int16_t *bp = b + p * ldb;
                for (std::size_t c = 0; c < kBfpDotTile; ++c)
                    sum[c] += av * bp[c];
            }
        } else {
            for (std::size_t c = 0; c < cols; ++c)
                for (std::size_t p = 0; p < len; ++p)
                    sum[c] += a[p] * b[p * ldb + c];
        }
        std::copy(sum, sum + cols, acc);
        return;
    }

    // The register can clip: saturate after every product, in order.
    const std::int64_t acc_max =
        (std::int64_t{1} << (fmt.accumulator_bits - 1)) - 1;
    const std::int64_t acc_min = -acc_max - 1;
    for (std::size_t c = 0; c < cols; ++c) {
        std::int64_t s = 0;
        for (std::size_t p = 0; p < len; ++p) {
            s += static_cast<std::int64_t>(a[p]) * b[p * ldb + c];
            s = std::clamp(s, acc_min, acc_max);
        }
        acc[c] = s;
    }
}

BfpBlock
BfpBlock::quantize(std::span<const float> values, const BfpFormat &fmt)
{
    BfpBlock blk;
    blk.fmt_ = fmt;
    blk.mantissas.resize(values.size());
    blk.exponent_ = bfpQuantizeStrip(values.data(), 1, values.size(), fmt,
                                     blk.mantissas.data());
    return blk;
}

std::vector<float>
BfpBlock::dequantize() const
{
    std::vector<float> out(mantissas.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = dequantize(i);
    return out;
}

float
BfpBlock::dequantize(std::size_t i) const
{
    EQX_ASSERT(i < mantissas.size(), "BFP index out of range");
    double v = std::ldexp(static_cast<double>(mantissas[i]),
                          exponent_ -
                              static_cast<int>(fmt_.mantissa_bits - 1));
    return static_cast<float>(v);
}

float
BfpBlock::dot(const BfpBlock &a, const BfpBlock &b)
{
    EQX_ASSERT(a.size() == b.size(), "BFP dot size mismatch: ",
               a.size(), " vs ", b.size());
    EQX_ASSERT(a.fmt_.mantissa_bits == b.fmt_.mantissa_bits,
               "BFP dot format mismatch");

    // One column of the GEMM kernel: b's mantissas at stride 1.
    std::int64_t acc = 0;
    bfpDotTile(a.mantissas.data(), b.mantissas.data(), 1, a.size(), 1,
               a.fmt_, &acc);
    return bfpDotValue(acc, a.exponent_, b.exponent_, a.fmt_);
}

double
BfpBlock::quantizationStep(std::int32_t exponent, const BfpFormat &fmt)
{
    return std::ldexp(1.0,
                      exponent - static_cast<int>(fmt.mantissa_bits - 1));
}

} // namespace arith
} // namespace equinox
