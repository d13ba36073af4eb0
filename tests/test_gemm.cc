/**
 * @file
 * Unit and property tests for the three GEMM engines.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "arith/bfloat16.hh"
#include "arith/gemm.hh"
#include "common/random.hh"

namespace equinox
{
namespace arith
{
namespace
{

Matrix
randomMatrix(std::size_t r, std::size_t c, Rng &rng, double sd = 1.0)
{
    Matrix m(r, c);
    m.randomize(rng, sd);
    return m;
}

TEST(GemmEngine, Names)
{
    EXPECT_STREQ(encodingName(Encoding::Fp32), "fp32");
    EXPECT_STREQ(encodingName(Encoding::Bfloat16), "bfloat16");
    EXPECT_STREQ(encodingName(Encoding::Hbfp8), "hbfp8");
}

TEST(Fp32Gemm, KnownProduct)
{
    Matrix a(2, 3), b(3, 2), c(2, 2);
    float av[] = {1, 2, 3, 4, 5, 6};
    float bv[] = {7, 8, 9, 10, 11, 12};
    std::copy(av, av + 6, a.data());
    std::copy(bv, bv + 6, b.data());
    Fp32Gemm eng;
    eng.multiply(a, b, c, false);
    EXPECT_EQ(c.at(0, 0), 58.0f);
    EXPECT_EQ(c.at(0, 1), 64.0f);
    EXPECT_EQ(c.at(1, 0), 139.0f);
    EXPECT_EQ(c.at(1, 1), 154.0f);
}

TEST(Fp32Gemm, AccumulateAddsIntoC)
{
    Rng rng(5);
    Matrix a = randomMatrix(4, 6, rng);
    Matrix b = randomMatrix(6, 3, rng);
    Matrix c0(4, 3, 2.0f), c1(4, 3, 0.0f);
    Fp32Gemm eng;
    eng.multiply(a, b, c0, true);
    eng.multiply(a, b, c1, false);
    for (std::size_t i = 0; i < c0.size(); ++i)
        EXPECT_NEAR(c0.data()[i], c1.data()[i] + 2.0f, 1e-5);
}

TEST(Fp32Gemm, IdentityIsNeutral)
{
    Rng rng(6);
    Matrix a = randomMatrix(5, 5, rng);
    Matrix eye(5, 5);
    for (std::size_t i = 0; i < 5; ++i)
        eye.at(i, i) = 1.0f;
    Matrix c(5, 5);
    Fp32Gemm eng;
    eng.multiply(a, eye, c, false);
    EXPECT_LT(maxAbsDiff(a, c), 1e-6);
}

/** Property sweep: every engine approximates the fp32 reference with an
 *  encoding-dependent error bound. */
struct EngineErrorCase
{
    EngineErrorCase(Encoding e, double tol) : encoding(e), tolerance(tol) {}

    Encoding encoding;
    // gtest prints every byte of the parameter into the test's name; an
    // explicit zero where padding would sit keeps that name stable.
    std::int32_t zero = 0;
    // Permitted max-abs error per unit operand norm for K=64 operands.
    double tolerance;
};

class GemmAccuracy : public ::testing::TestWithParam<EngineErrorCase>
{
};

TEST_P(GemmAccuracy, TracksReference)
{
    auto param = GetParam();
    auto engine = makeGemmEngine(param.encoding);
    Fp32Gemm reference;
    Rng rng(71);
    for (int trial = 0; trial < 10; ++trial) {
        std::size_t m = 1 + rng.uniformInt(0, 15);
        std::size_t k = 1 + rng.uniformInt(0, 63);
        std::size_t n = 1 + rng.uniformInt(0, 15);
        Matrix a = randomMatrix(m, k, rng);
        Matrix b = randomMatrix(k, n, rng);
        Matrix c_ref(m, n), c_eng(m, n);
        reference.multiply(a, b, c_ref, false);
        engine->multiply(a, b, c_eng, false);
        double norm = std::sqrt(static_cast<double>(k));
        EXPECT_LT(maxAbsDiff(c_ref, c_eng), param.tolerance * norm)
            << "engine " << engine->name() << " trial " << trial
            << " dims " << m << "x" << k << "x" << n;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllEncodings, GemmAccuracy,
    ::testing::Values(EngineErrorCase{Encoding::Fp32, 1e-5},
                      EngineErrorCase{Encoding::Bfloat16, 0.05},
                      EngineErrorCase{Encoding::Hbfp8, 0.08}),
    [](const ::testing::TestParamInfo<EngineErrorCase> &info) {
        return encodingName(info.param.encoding);
    });

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(GemmShapes, AllEnginesHandleRaggedShapes)
{
    auto [m, k, n] = GetParam();
    Rng rng(83);
    Matrix a = randomMatrix(m, k, rng);
    Matrix b = randomMatrix(k, n, rng);
    Fp32Gemm reference;
    Matrix c_ref(m, n);
    reference.multiply(a, b, c_ref, false);
    for (auto enc : {Encoding::Bfloat16, Encoding::Hbfp8}) {
        auto engine = makeGemmEngine(enc);
        Matrix c(m, n);
        engine->multiply(a, b, c, false);
        double norm = std::sqrt(static_cast<double>(k));
        EXPECT_LT(maxAbsDiff(c_ref, c), 0.1 * norm) << engine->name();
    }
}

INSTANTIATE_TEST_SUITE_P(
    RaggedSweep, GemmShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{1, 300, 1},
                      std::tuple{3, 257, 5}, std::tuple{17, 256, 2},
                      std::tuple{2, 511, 2}, std::tuple{31, 64, 31}));

TEST(HbfpGemm, BlockLengthDoesNotChangeSemanticsMuch)
{
    // Different block lengths change where quantization boundaries fall
    // but must stay within the encoding's accuracy envelope.
    Rng rng(97);
    Matrix a = randomMatrix(8, 512, rng);
    Matrix b = randomMatrix(512, 8, rng);
    Fp32Gemm reference;
    Matrix c_ref(8, 8);
    reference.multiply(a, b, c_ref, false);
    for (std::size_t blk : {64u, 128u, 256u, 512u}) {
        HbfpGemm eng(hbfp8Format(), blk);
        Matrix c(8, 8);
        eng.multiply(a, b, c, false);
        EXPECT_LT(maxAbsDiff(c_ref, c), 0.1 * std::sqrt(512.0))
            << "block " << blk;
    }
}

TEST(HbfpGemm, SmallerBlocksAreMoreAccurate)
{
    // With outliers in the operand, smaller blocks localise the shared
    // exponent damage; aggregate error should not grow when blocks shrink.
    Rng rng(101);
    Matrix a = randomMatrix(4, 512, rng);
    Matrix b = randomMatrix(512, 4, rng);
    // Inject outliers to stress shared exponents.
    for (std::size_t i = 0; i < 16; ++i)
        a.at(rng.uniformInt(0, 3), rng.uniformInt(0, 511)) *= 64.0f;

    Fp32Gemm reference;
    Matrix c_ref(4, 4);
    reference.multiply(a, b, c_ref, false);

    auto total_err = [&](std::size_t blk) {
        HbfpGemm eng(hbfp8Format(), blk);
        Matrix c(4, 4);
        eng.multiply(a, b, c, false);
        double e = 0.0;
        for (std::size_t i = 0; i < c.size(); ++i)
            e += std::abs(c.data()[i] - c_ref.data()[i]);
        return e;
    };
    EXPECT_LT(total_err(32), total_err(512) + 1e-9);
}

TEST(Bf16Gemm, OutputIsBf16Representable)
{
    Rng rng(103);
    Matrix a = randomMatrix(4, 16, rng);
    Matrix b = randomMatrix(16, 4, rng);
    Bf16Gemm eng;
    Matrix c(4, 4);
    eng.multiply(a, b, c, false);
    for (std::size_t i = 0; i < c.size(); ++i)
        EXPECT_EQ(c.data()[i], roundToBf16(c.data()[i]));
}

TEST(GemmEngine, FactoryCoversAllEncodings)
{
    for (auto enc : {Encoding::Fp32, Encoding::Bfloat16, Encoding::Hbfp8}) {
        auto engine = makeGemmEngine(enc);
        ASSERT_NE(engine, nullptr);
        EXPECT_EQ(engine->encoding(), enc);
    }
}

// ---------------------------------------------------------------------
// Bitwise differential suite. The engines are register-tiled kernels over
// pre-quantized panels; these are frozen copies of the naive per-element
// loops (and per-block BFP quantize/dot) they replaced. Every output
// element must match the reference bit for bit.

namespace naive
{

struct Block
{
    std::int32_t exponent = 0;
    std::vector<std::int16_t> mantissas;
};

Block
quantize(std::span<const float> values, const BfpFormat &fmt)
{
    Block blk;
    blk.mantissas.resize(values.size());
    float max_abs = 0.0f;
    for (float v : values)
        max_abs = std::max(max_abs, std::abs(v));
    if (max_abs == 0.0f) {
        blk.exponent = fmt.exponentMin();
        return blk;
    }
    int e = static_cast<int>(std::floor(std::log2(max_abs))) + 1;
    std::int32_t mmax = fmt.mantissaMax();
    double ratio = static_cast<double>(max_abs) * std::ldexp(1.0, -e);
    if (std::nearbyint(ratio * std::ldexp(1.0, fmt.mantissa_bits - 1)) >
        mmax) {
        ++e;
    }
    e = std::clamp<int>(e, fmt.exponentMin(), fmt.exponentMax());
    blk.exponent = e;
    double scale = std::ldexp(1.0, -(e - static_cast<int>(
        fmt.mantissa_bits - 1)));
    for (std::size_t i = 0; i < values.size(); ++i) {
        auto q = static_cast<std::int64_t>(
            std::nearbyint(static_cast<double>(values[i]) * scale));
        q = std::clamp<std::int64_t>(q, -static_cast<std::int64_t>(mmax),
                                     static_cast<std::int64_t>(mmax));
        blk.mantissas[i] = static_cast<std::int16_t>(q);
    }
    return blk;
}

float
dot(const Block &a, const Block &b, const BfpFormat &fmt)
{
    std::int64_t acc = 0;
    const std::int64_t acc_max =
        (std::int64_t{1} << (fmt.accumulator_bits - 1)) - 1;
    const std::int64_t acc_min =
        -(std::int64_t{1} << (fmt.accumulator_bits - 1));
    for (std::size_t i = 0; i < a.mantissas.size(); ++i) {
        acc += static_cast<std::int64_t>(a.mantissas[i]) *
               static_cast<std::int64_t>(b.mantissas[i]);
        acc = std::clamp(acc, acc_min, acc_max);
    }
    int frac_bits = 2 * static_cast<int>(fmt.mantissa_bits - 1);
    return static_cast<float>(std::ldexp(static_cast<double>(acc),
                                         a.exponent + b.exponent -
                                             frac_bits));
}

void
fp32(const Matrix &a, const Matrix &b, Matrix &c, bool accumulate)
{
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < b.cols(); ++j) {
            double acc = accumulate ? c.at(i, j) : 0.0;
            for (std::size_t p = 0; p < a.cols(); ++p) {
                acc += static_cast<double>(a.at(i, p)) *
                       static_cast<double>(b.at(p, j));
            }
            c.at(i, j) = static_cast<float>(acc);
        }
    }
}

void
bf16(const Matrix &a, const Matrix &b, Matrix &c, bool accumulate)
{
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < b.cols(); ++j) {
            float acc = accumulate ? c.at(i, j) : 0.0f;
            for (std::size_t p = 0; p < a.cols(); ++p)
                acc += roundToBf16(a.at(i, p)) * roundToBf16(b.at(p, j));
            c.at(i, j) = roundToBf16(acc);
        }
    }
}

void
hbfp(const Matrix &a, const Matrix &b, Matrix &c, bool accumulate,
     const BfpFormat &fmt, std::size_t block_len)
{
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    const std::size_t nblocks = (k + block_len - 1) / block_len;
    Matrix bt = b.transposed();
    std::vector<Block> a_blocks(m * nblocks), b_blocks(n * nblocks);
    for (std::size_t blk = 0; blk < nblocks; ++blk) {
        std::size_t lo = blk * block_len;
        std::size_t len = std::min(block_len, k - lo);
        for (std::size_t i = 0; i < m; ++i)
            a_blocks[i * nblocks + blk] =
                quantize({a.rowPtr(i) + lo, len}, fmt);
        for (std::size_t j = 0; j < n; ++j)
            b_blocks[j * nblocks + blk] =
                quantize({bt.rowPtr(j) + lo, len}, fmt);
    }
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            float acc = accumulate ? c.at(i, j) : 0.0f;
            for (std::size_t blk = 0; blk < nblocks; ++blk) {
                float partial = dot(a_blocks[i * nblocks + blk],
                                    b_blocks[j * nblocks + blk], fmt);
                acc = roundToBf16(acc + roundToBf16(partial));
            }
            c.at(i, j) = acc;
        }
    }
}

} // namespace naive

/**
 * Every element of @p got equals @p want bit for bit; with @p any_nan, a
 * NaN matches any NaN.
 */
void
expectBitEqual(const Matrix &want, const Matrix &got, const std::string &ctx,
               bool any_nan = false)
{
    ASSERT_EQ(want.size(), got.size()) << ctx;
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
        const float w = want.data()[i], g = got.data()[i];
        if (any_nan && std::isnan(w) && std::isnan(g))
            continue;
        if (std::bit_cast<std::uint32_t>(w) !=
            std::bit_cast<std::uint32_t>(g)) {
            if (++mismatches <= 3) {
                ADD_FAILURE() << ctx << " element " << i << ": want " << w
                              << " got " << g;
            }
        }
    }
    EXPECT_EQ(mismatches, 0u) << ctx;
}

/**
 * An operand with mixed magnitudes: a per-row scale spanning 1e-3..1e3,
 * occasional outliers, and some all-zero rows and row segments so whole
 * BFP strips hit the zero-block (exponentMin) path.
 */
Matrix
fuzzOperand(std::size_t r, std::size_t c, Rng &rng)
{
    Matrix m(r, c);
    for (std::size_t i = 0; i < r; ++i) {
        double sd = std::pow(10.0, rng.uniform(-3.0, 3.0));
        const auto shape = rng.uniformInt(0, 9);
        for (std::size_t j = 0; j < c; ++j) {
            float v = static_cast<float>(rng.normal(0.0, sd));
            if (shape == 0 || (shape == 1 && j < c / 2))
                v = 0.0f;
            else if (rng.uniformInt(0, 63) == 0)
                v *= 256.0f;
            m.at(i, j) = v;
        }
    }
    return m;
}

struct DiffCase
{
    std::size_t m, k, n;
    bool accumulate;
};

std::string
describe(const char *engine, const DiffCase &dc)
{
    return std::string(engine) + " " + std::to_string(dc.m) + "x" +
           std::to_string(dc.k) + "x" + std::to_string(dc.n) +
           (dc.accumulate ? " acc" : "");
}

/** Random shapes: m and n straddle the 8-column tile, k spans blocks. */
std::vector<DiffCase>
fuzzCases(Rng &rng, std::size_t block_len, int count)
{
    std::vector<DiffCase> cases;
    for (int t = 0; t < count; ++t) {
        DiffCase dc;
        dc.m = 1 + rng.uniformInt(0, 18);
        dc.n = 1 + rng.uniformInt(0, 26);
        // Several whole blocks (more when they are short) plus a ragged
        // tail, which may be empty; k stays below ~700.
        const std::size_t whole =
            rng.uniformInt(0, std::max<std::size_t>(3, 40 / block_len));
        const std::size_t tail = rng.uniformInt(0, block_len - 1);
        dc.k = std::max<std::size_t>(1, whole * block_len + tail);
        dc.k = std::min<std::size_t>(dc.k, 700);
        dc.accumulate = (t % 2) == 1;
        cases.push_back(dc);
    }
    return cases;
}

/**
 * Replace about one element in 24 of @p m by +inf or -inf, and with
 * @p nan also by NaN, as a diverging run would feed the engines.
 */
void
sprinkleNonFinite(Matrix &m, Rng &rng, bool nan)
{
    constexpr float kInf = std::numeric_limits<float>::infinity();
    const float values[] = {kInf, -kInf,
                            std::numeric_limits<float>::quiet_NaN()};
    for (std::size_t i = 0; i < m.size(); ++i) {
        if (rng.uniformInt(0, 23) == 0)
            m.data()[i] = values[rng.uniformInt(0, nan ? 2 : 1)];
    }
}

/**
 * The fp32 and bfloat16 engines on @p build against the naive loops, bit
 * for bit, over the finite fuzz and over the fuzz with +-inf operands:
 * every NaN there is an invalid operation's default NaN. With @p other
 * set, also against build @p other over the fuzz with NaN operands. An
 * add of two NaNs returns one of them and the compiler may commute the
 * add (it does at -O0), so there the contract is NaN for NaN, not the
 * payload or sign.
 */
void
fuzzFloatEngines(KernelBuild build, const KernelBuild *other)
{
    Rng rng(2024);
    Fp32Gemm fp32;
    Bf16Gemm bf16;
    auto cases = fuzzCases(rng, 64, 40);
    cases.push_back({8, 1, 8, false});
    cases.push_back({16, 300, 24, true});
    cases.push_back({3, 5, 7, true});
    for (const auto &dc : cases) {
        Matrix a = fuzzOperand(dc.m, dc.k, rng);
        Matrix b = fuzzOperand(dc.k, dc.n, rng);
        Matrix c0 = fuzzOperand(dc.m, dc.n, rng);

        Matrix want = c0, got = c0;
        naive::fp32(a, b, want, dc.accumulate);
        fp32.multiplyWith(build, a, b, got, dc.accumulate);
        expectBitEqual(want, got, describe("fp32", dc));

        want = c0;
        got = c0;
        naive::bf16(a, b, want, dc.accumulate);
        bf16.multiplyWith(build, a, b, got, dc.accumulate);
        expectBitEqual(want, got, describe("bfloat16", dc));

        sprinkleNonFinite(a, rng, false);
        sprinkleNonFinite(b, rng, false);
        sprinkleNonFinite(c0, rng, false);
        want = c0;
        got = c0;
        naive::fp32(a, b, want, dc.accumulate);
        fp32.multiplyWith(build, a, b, got, dc.accumulate);
        expectBitEqual(want, got, describe("fp32", dc) + " inf");

        want = c0;
        got = c0;
        naive::bf16(a, b, want, dc.accumulate);
        bf16.multiplyWith(build, a, b, got, dc.accumulate);
        expectBitEqual(want, got, describe("bfloat16", dc) + " inf");

        if (!other)
            continue;
        sprinkleNonFinite(a, rng, true);
        sprinkleNonFinite(b, rng, true);
        sprinkleNonFinite(c0, rng, true);
        want = c0;
        got = c0;
        fp32.multiplyWith(*other, a, b, want, dc.accumulate);
        fp32.multiplyWith(build, a, b, got, dc.accumulate);
        expectBitEqual(want, got, describe("fp32", dc) + " NaN", true);

        want = c0;
        got = c0;
        bf16.multiplyWith(*other, a, b, want, dc.accumulate);
        bf16.multiplyWith(build, a, b, got, dc.accumulate);
        expectBitEqual(want, got, describe("bfloat16", dc) + " NaN", true);
    }
}

TEST(KernelBuilds, ActiveBuildIsTheWidestSupported)
{
    EXPECT_TRUE(kernelBuildSupported(KernelBuild::Baseline));
    EXPECT_EQ(activeKernelBuild(),
              kernelBuildSupported(KernelBuild::X86_64_V3)
                  ? KernelBuild::X86_64_V3
                  : KernelBuild::Baseline);
}

TEST(GemmDifferential, Fp32AndBf16MatchNaiveLoopsBitwise)
{
    fuzzFloatEngines(KernelBuild::Baseline, nullptr);
}

TEST(GemmDifferential, Fp32AndBf16X86V3BuildMatchesBitwise)
{
    if (!kernelBuildSupported(KernelBuild::X86_64_V3))
        GTEST_SKIP() << "this CPU lacks x86-64-v3 (AVX2 + FMA)";
    const KernelBuild baseline = KernelBuild::Baseline;
    fuzzFloatEngines(KernelBuild::X86_64_V3, &baseline);
}

struct HbfpDiffParam
{
    BfpFormat fmt;
    std::size_t block_len;
    const char *name;
};

void
PrintTo(const HbfpDiffParam &param, std::ostream *os)
{
    *os << param.name;
}

class HbfpDifferential : public ::testing::TestWithParam<HbfpDiffParam>
{
};

/**
 * HbfpGemm on @p build against the naive block loop over the finite
 * fuzz; with @p other set, also against build @p other, bit for bit,
 * over the fuzz with inf/NaN operands, which the naive quantizer does
 * not define. Quantization maps a NaN operand to 0 and no block partial
 * is NaN, so an output's NaN can only be C's own or an inf - inf.
 */
void
fuzzHbfp(const HbfpDiffParam &param, KernelBuild build,
         const KernelBuild *other)
{
    HbfpGemm engine(param.fmt, param.block_len);
    Rng rng(7000 + param.block_len + param.fmt.accumulator_bits);
    auto cases = fuzzCases(rng, param.block_len, 24);
    cases.push_back({8, param.block_len, 16, false});
    cases.push_back({9, param.block_len + 1, 17, true});
    for (const auto &dc : cases) {
        Matrix a = fuzzOperand(dc.m, dc.k, rng);
        Matrix b = fuzzOperand(dc.k, dc.n, rng);
        Matrix c0 = fuzzOperand(dc.m, dc.n, rng);
        Matrix want = c0, got = c0;
        naive::hbfp(a, b, want, dc.accumulate, param.fmt, param.block_len);
        engine.multiplyWith(build, a, b, got, dc.accumulate);
        expectBitEqual(want, got, describe(param.name, dc));

        if (!other)
            continue;
        sprinkleNonFinite(a, rng, true);
        sprinkleNonFinite(b, rng, true);
        sprinkleNonFinite(c0, rng, true);
        want = c0;
        got = c0;
        engine.multiplyWith(*other, a, b, want, dc.accumulate);
        engine.multiplyWith(build, a, b, got, dc.accumulate);
        expectBitEqual(want, got, describe(param.name, dc) + " non-finite");
    }
}

TEST_P(HbfpDifferential, MatchesNaiveBlockLoopBitwise)
{
    fuzzHbfp(GetParam(), KernelBuild::Baseline, nullptr);
}

TEST_P(HbfpDifferential, X86V3BuildMatchesBitwise)
{
    if (!kernelBuildSupported(KernelBuild::X86_64_V3))
        GTEST_SKIP() << "this CPU lacks x86-64-v3 (AVX2 + FMA)";
    const KernelBuild baseline = KernelBuild::Baseline;
    fuzzHbfp(GetParam(), KernelBuild::X86_64_V3, &baseline);
}

// {8, 12, 12}: a single 127 x 127 product already overflows a 12-bit
// register; hbfp10 at 256 can reach 256 * 511^2 > 2^24. Both force the
// per-step clamped path; the rest take the unclamped int32 kernel.
INSTANTIATE_TEST_SUITE_P(
    Formats, HbfpDifferential,
    ::testing::Values(HbfpDiffParam{hbfp8Format(), 1, "hbfp8_b1"},
                      HbfpDiffParam{hbfp8Format(), 7, "hbfp8_b7"},
                      HbfpDiffParam{hbfp8Format(), 64, "hbfp8_b64"},
                      HbfpDiffParam{hbfp8Format(), 256, "hbfp8_b256"},
                      HbfpDiffParam{hbfp8Format(), 300, "hbfp8_b300"},
                      HbfpDiffParam{BfpFormat{4, 12, 25}, 64, "hbfp4_b64"},
                      HbfpDiffParam{BfpFormat{8, 12, 12}, 64,
                                    "narrow_acc_b64"},
                      HbfpDiffParam{BfpFormat{10, 12, 25}, 256,
                                    "hbfp10_b256"},
                      HbfpDiffParam{BfpFormat{8, 5, 25}, 7,
                                    "narrow_exp_b7"}),
    [](const ::testing::TestParamInfo<HbfpDiffParam> &info) {
        return std::string(info.param.name);
    });

TEST(BfpKernels, SaturatingRegisterMatchesNaive)
{
    // Same-sign maximal mantissas: the 12-bit register clips on the first
    // step and hbfp8's 25-bit register clips past ~1040 products.
    for (auto [fmt, len] : {std::pair{BfpFormat{8, 12, 12}, std::size_t{64}},
                            std::pair{hbfp8Format(), std::size_t{2048}}}) {
        Matrix a(3, len, 0.99f), b(len, 9, 0.99f);
        b.at(0, 4) = -0.99f;
        HbfpGemm engine(fmt, len);
        Matrix want(3, 9), got(3, 9);
        naive::hbfp(a, b, want, false, fmt, len);
        engine.multiply(a, b, got, false);
        expectBitEqual(want, got, "saturating " + std::to_string(len));
    }
}

TEST(BfpKernels, WideRegisterMatchesNaiveOnEveryBuild)
{
    // A 32-bit register never clips hbfp10 at 256, so the int32 kernel
    // runs, and these dots reach ~256 * 507^2 > 2^24: converting one to
    // float rounds it, which must round as bfpDotValue's product does.
    const BfpFormat fmt{10, 12, 32};
    Matrix a(5, 256, 0.99f), b(256, 9, 0.99f);
    b.at(0, 4) = -0.99f;
    a.at(2, 7) = 0.5f;
    HbfpGemm engine(fmt, 256);
    Matrix want(5, 9);
    naive::hbfp(a, b, want, false, fmt, 256);
    for (KernelBuild build : {KernelBuild::Baseline, KernelBuild::X86_64_V3}) {
        if (!kernelBuildSupported(build))
            continue;
        Matrix got(5, 9);
        engine.multiplyWith(build, a, b, got, false);
        expectBitEqual(want, got, "wide register");
    }
}

TEST(BfpKernels, BlockWrappersEqualStripKernels)
{
    Rng rng(31);
    for (const BfpFormat &fmt :
         {hbfp8Format(), BfpFormat{8, 12, 12}, BfpFormat{10, 12, 25}}) {
        for (std::size_t len : {0u, 1u, 7u, 64u, 300u}) {
            // x is column 0 of a len x 3 matrix, so the strip kernel reads
            // (and writes) it at stride 3; y is column 2.
            Matrix cols = fuzzOperand(len, 3, rng);
            std::vector<float> x(len), y(len);
            for (std::size_t p = 0; p < len; ++p) {
                x[p] = cols.at(p, 0);
                y[p] = cols.at(p, 2);
            }
            auto bx = BfpBlock::quantize(x, fmt);
            auto by = BfpBlock::quantize(y, fmt);
            auto nx = naive::quantize(x, fmt);
            auto ny = naive::quantize(y, fmt);

            std::vector<std::int16_t> panel(len * 3, 99);
            std::int32_t ex = len ? bfpQuantizeStrip(cols.data(), 3, len,
                                                     fmt, panel.data())
                                  : fmt.exponentMin();
            EXPECT_EQ(bx.exponent(), nx.exponent);
            EXPECT_EQ(bx.exponent(), ex);
            for (std::size_t p = 0; p < len; ++p) {
                EXPECT_EQ(bx.mantissa(p), nx.mantissas[p]);
                EXPECT_EQ(bx.mantissa(p), panel[p * 3]);
                // Stride leaves the other columns untouched.
                EXPECT_EQ(panel[p * 3 + 1], 99);
            }

            std::int64_t acc = 0;
            bfpDotTile(nx.mantissas.data(), ny.mantissas.data(), 1, len, 1,
                       fmt, &acc);
            const float want = naive::dot(nx, ny, fmt);
            EXPECT_EQ(std::bit_cast<std::uint32_t>(BfpBlock::dot(bx, by)),
                      std::bit_cast<std::uint32_t>(want));
            EXPECT_EQ(std::bit_cast<std::uint32_t>(
                          bfpDotValue(acc, nx.exponent, ny.exponent, fmt)),
                      std::bit_cast<std::uint32_t>(want));
        }
    }
}

TEST(HbfpGemm, RejectsUnsupportedMantissaWidth)
{
    // int16 panels hold at most 15-bit mantissas.
    Matrix a(2, 4, 1.0f), b(4, 2, 1.0f), c(2, 2);
    HbfpGemm wide(BfpFormat{16, 12, 40}, 4);
    EXPECT_DEATH(wide.multiply(a, b, c, false), "unsupported mantissa");
    HbfpGemm narrow(BfpFormat{1, 12, 25}, 4);
    EXPECT_DEATH(narrow.multiply(a, b, c, false), "unsupported mantissa");
}

TEST(HbfpGemm, NonFiniteOperandsStayConfinedToTheirRow)
{
    // A diverging run can feed inf/NaN into the GEMM. Quantization is
    // defined for them (see test_bfp), and a non-finite row of A must not
    // disturb the rows computed from finite strips.
    Rng rng(211);
    Matrix a = randomMatrix(4, 40, rng);
    Matrix b = randomMatrix(40, 11, rng);
    Matrix clean = a;
    a.at(1, 3) = std::numeric_limits<float>::infinity();
    a.at(2, 5) = std::numeric_limits<float>::quiet_NaN();
    a.at(2, 6) = -std::numeric_limits<float>::infinity();
    for (std::size_t j = 0; j < 40; ++j) {
        clean.at(1, j) = 0.0f;
        clean.at(2, j) = 0.0f;
    }
    HbfpGemm engine(hbfp8Format(), 16);
    Matrix got(4, 11), want(4, 11);
    engine.multiply(a, b, got, false);
    engine.multiply(clean, b, want, false);
    for (std::size_t i : {0u, 3u}) {
        for (std::size_t j = 0; j < 11; ++j)
            EXPECT_EQ(std::bit_cast<std::uint32_t>(got.at(i, j)),
                      std::bit_cast<std::uint32_t>(want.at(i, j)));
    }
}

} // namespace
} // namespace arith
} // namespace equinox
