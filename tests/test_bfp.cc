/**
 * @file
 * Unit and property tests for block floating point (the hbfp8 substrate).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "arith/bfp.hh"
#include "common/random.hh"

namespace equinox
{
namespace arith
{
namespace
{

TEST(BfpFormat, Hbfp8Parameters)
{
    BfpFormat f = hbfp8Format();
    EXPECT_EQ(f.mantissa_bits, 8u);
    EXPECT_EQ(f.exponent_bits, 12u);
    EXPECT_EQ(f.accumulator_bits, 25u);
    EXPECT_EQ(f.mantissaMax(), 127);
    EXPECT_EQ(f.exponentMax(), 2047);
    EXPECT_EQ(f.exponentMin(), -2048);
}

TEST(BfpBlock, ZeroBlock)
{
    std::vector<float> v(16, 0.0f);
    auto blk = BfpBlock::quantize(v, hbfp8Format());
    for (std::size_t i = 0; i < v.size(); ++i)
        EXPECT_EQ(blk.dequantize(i), 0.0f);
}

TEST(BfpBlock, QuantizationErrorBound)
{
    Rng rng(41);
    BfpFormat fmt = hbfp8Format();
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<float> v(64);
        double scale = std::pow(10.0, rng.uniform(-3.0, 3.0));
        for (auto &x : v)
            x = static_cast<float>(rng.normal(0.0, scale));
        auto blk = BfpBlock::quantize(v, fmt);
        double step = BfpBlock::quantizationStep(blk.exponent(), fmt);
        auto back = blk.dequantize();
        for (std::size_t i = 0; i < v.size(); ++i) {
            // Round-to-nearest leaves at most half a step of error.
            EXPECT_LE(std::abs(back[i] - v[i]), 0.5 * step + 1e-12)
                << "trial " << trial << " elem " << i;
        }
    }
}

TEST(BfpBlock, LargestMagnitudeElementKeepsSign)
{
    std::vector<float> v{0.1f, -3.0f, 0.5f};
    auto blk = BfpBlock::quantize(v, hbfp8Format());
    EXPECT_LT(blk.dequantize(1), 0.0f);
    EXPECT_GT(blk.dequantize(2), 0.0f);
}

TEST(BfpBlock, SharedExponentFollowsMaxAbs)
{
    // Max abs 6.0 -> exponent 3 (6 < 8 = 2^3).
    std::vector<float> v{6.0f, 0.01f};
    auto blk = BfpBlock::quantize(v, hbfp8Format());
    EXPECT_EQ(blk.exponent(), 3);
    // Small elements lose precision to the shared exponent; error is
    // bounded by half the block step.
    double step = BfpBlock::quantizationStep(3, hbfp8Format());
    EXPECT_LE(std::abs(blk.dequantize(1) - 0.01), 0.5 * step + 1e-12);
}

TEST(BfpBlock, PowerOfTwoValuesExact)
{
    // Values that are exact multiples of the step survive quantization.
    std::vector<float> v{1.0f, 0.5f, 0.25f, -0.75f};
    auto blk = BfpBlock::quantize(v, hbfp8Format());
    for (std::size_t i = 0; i < v.size(); ++i)
        EXPECT_EQ(blk.dequantize(i), v[i]) << i;
}

TEST(BfpBlock, DotMatchesDequantizedDot)
{
    Rng rng(43);
    BfpFormat fmt = hbfp8Format();
    for (int trial = 0; trial < 100; ++trial) {
        std::size_t len = 1 + rng.uniformInt(0, 127);
        std::vector<float> a(len), b(len);
        for (auto &x : a)
            x = static_cast<float>(rng.normal(0.0, 1.0));
        for (auto &x : b)
            x = static_cast<float>(rng.normal(0.0, 1.0));
        auto ba = BfpBlock::quantize(a, fmt);
        auto bb = BfpBlock::quantize(b, fmt);
        // No saturation expected at this length/scale, so the integer
        // datapath must agree exactly with the dequantized dot product.
        double expect = 0.0;
        auto da = ba.dequantize();
        auto db = bb.dequantize();
        for (std::size_t i = 0; i < len; ++i)
            expect += static_cast<double>(da[i]) *
                      static_cast<double>(db[i]);
        EXPECT_NEAR(BfpBlock::dot(ba, bb), expect,
                    1e-6 * std::max(1.0, std::abs(expect)));
    }
}

TEST(BfpBlock, DotApproximatesFp32Dot)
{
    Rng rng(47);
    BfpFormat fmt = hbfp8Format();
    std::size_t len = 256;
    std::vector<float> a(len), b(len);
    for (auto &x : a)
        x = static_cast<float>(rng.normal(0.0, 1.0));
    for (auto &x : b)
        x = static_cast<float>(rng.normal(0.0, 1.0));
    double exact = 0.0;
    for (std::size_t i = 0; i < len; ++i)
        exact += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    float approx =
        BfpBlock::dot(BfpBlock::quantize(a, fmt),
                      BfpBlock::quantize(b, fmt));
    // 8-bit mantissas: relative error on the order of a percent of the
    // operand norms.
    double norm = std::sqrt(static_cast<double>(len));
    EXPECT_NEAR(approx, exact, 0.05 * norm);
}

TEST(BfpBlock, AccumulatorSaturates)
{
    // A long block of maximal same-sign products exceeds 2^24 and must
    // clip at the 25-bit accumulator limit instead of wrapping.
    BfpFormat fmt = hbfp8Format();
    // 0.99 quantizes to mantissa 127; 127*127*2048 ~ 3.3e7 > 2^24-1.
    std::size_t len = 2048;
    std::vector<float> v(len, 0.99f);
    auto blk = BfpBlock::quantize(v, fmt);
    float dot = BfpBlock::dot(blk, blk);
    // Saturated result is positive and below the unsaturated value.
    double unsaturated = 0.0;
    auto d = blk.dequantize();
    for (std::size_t i = 0; i < len; ++i)
        unsaturated += static_cast<double>(d[i]) * d[i];
    EXPECT_GT(dot, 0.0f);
    EXPECT_LT(dot, unsaturated);
    // Exactly the clip value: (2^24 - 1) * 2^(e_a + e_b - 14).
    double clip = std::ldexp(static_cast<double>((1 << 24) - 1),
                             blk.exponent() * 2 - 14);
    EXPECT_FLOAT_EQ(dot, static_cast<float>(clip));
}

TEST(BfpBlock, NonFiniteMaximumSaturatesExponent)
{
    // A diverging run reaches the quantizer with inf/NaN; the result is
    // defined (and clean under UBSan): the exponent saturates, +-inf take
    // the largest mantissa magnitude and NaN becomes 0.
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    BfpFormat fmt = hbfp8Format();
    std::vector<float> v{1.0f, inf, -inf, nan, -2.5f};
    auto blk = BfpBlock::quantize(v, fmt);
    EXPECT_EQ(blk.exponent(), fmt.exponentMax());
    EXPECT_EQ(blk.mantissa(1), fmt.mantissaMax());
    EXPECT_EQ(blk.mantissa(2), -fmt.mantissaMax());
    EXPECT_EQ(blk.mantissa(3), 0);
    for (std::size_t i : {0u, 4u}) {
        EXPECT_LE(std::abs(blk.mantissa(i)), fmt.mantissaMax());
    }
}

TEST(BfpBlock, NanNeverPicksTheExponent)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    BfpFormat fmt = hbfp8Format();
    auto blk = BfpBlock::quantize(std::vector<float>{nan, 1.0f, -nan}, fmt);
    EXPECT_EQ(blk.exponent(), 1);
    EXPECT_EQ(blk.mantissa(0), 0);
    EXPECT_EQ(blk.dequantize(1), 1.0f);
    EXPECT_EQ(blk.mantissa(2), 0);

    // Only NaNs: a zero block.
    auto all_nan = BfpBlock::quantize(std::vector<float>(5, nan), fmt);
    EXPECT_EQ(all_nan.exponent(), fmt.exponentMin());
    for (std::size_t i = 0; i < all_nan.size(); ++i)
        EXPECT_EQ(all_nan.mantissa(i), 0);
}

TEST(BfpBlock, OutOfRangeValuesClampUnderNarrowExponent)
{
    // A 4-bit exponent tops out at 2^7, so 1e30 cannot be represented and
    // must clamp to the largest mantissa instead of overflowing a cast.
    BfpFormat fmt{8, 4, 25};
    auto blk = BfpBlock::quantize(std::vector<float>{1e30f, -1e30f, 0.0f},
                                  fmt);
    EXPECT_EQ(blk.exponent(), fmt.exponentMax());
    EXPECT_EQ(blk.mantissa(0), fmt.mantissaMax());
    EXPECT_EQ(blk.mantissa(1), -fmt.mantissaMax());
    EXPECT_EQ(blk.mantissa(2), 0);
}

TEST(BfpBlock, NarrowerMantissaHasLargerError)
{
    Rng rng(53);
    std::vector<float> v(128);
    for (auto &x : v)
        x = static_cast<float>(rng.normal(0.0, 1.0));

    BfpFormat f8 = hbfp8Format();
    BfpFormat f4{4, 12, 25};
    auto b8 = BfpBlock::quantize(v, f8);
    auto b4 = BfpBlock::quantize(v, f4);
    double e8 = 0.0, e4 = 0.0;
    for (std::size_t i = 0; i < v.size(); ++i) {
        e8 += std::abs(b8.dequantize(i) - v[i]);
        e4 += std::abs(b4.dequantize(i) - v[i]);
    }
    EXPECT_LT(e8, e4);
}

} // namespace
} // namespace arith
} // namespace equinox
