#include "arith/gemm.hh"

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "arith/bfloat16.hh"
#include "common/logging.hh"

namespace equinox
{
namespace arith
{

const char *
encodingName(Encoding e)
{
    switch (e) {
      case Encoding::Fp32: return "fp32";
      case Encoding::Bfloat16: return "bfloat16";
      case Encoding::Hbfp8: return "hbfp8";
      default: return "?";
    }
}

bool
kernelBuildSupported(KernelBuild build)
{
    static const bool v3 = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("x86-64-v3") != 0;
    }();
    return build == KernelBuild::Baseline || v3;
}

KernelBuild
activeKernelBuild()
{
    static const KernelBuild build =
        kernelBuildSupported(KernelBuild::X86_64_V3) ? KernelBuild::X86_64_V3
                                                      : KernelBuild::Baseline;
    return build;
}

void
GemmEngine::checkShapes(const Matrix &a, const Matrix &b, const Matrix &c)
{
    EQX_ASSERT(a.cols() == b.rows(),
               "GEMM inner-dimension mismatch: ", a.cols(), " vs ",
               b.rows());
    EQX_ASSERT(c.rows() == a.rows() && c.cols() == b.cols(),
               "GEMM output shape mismatch");
}

namespace
{

// Kernel bodies are always_inline templates over the build; each kernel
// is instantiated once for the default ISA and once under
// target("arch=x86-64-v3") (see runKernel), so both builds are one
// source. They use GCC vector extensions only as locals or by reference:
// a 32-byte vector passed by value would change the baseline ABI. In
// `s - V{}`, the scalar s is broadcast to every lane.

using F32x4 = float __attribute__((vector_size(16)));
using I32x4 = std::int32_t __attribute__((vector_size(16)));
using I16x4 = std::int16_t __attribute__((vector_size(8)));
using I16x8 = std::int16_t __attribute__((vector_size(16)));
using F64x4 = double __attribute__((vector_size(32)));
using I64x4 = std::int64_t __attribute__((vector_size(32)));

/** N lanes of T. */
template <typename T, std::size_t N>
struct VecN
{
    typedef T type __attribute__((vector_size(N * sizeof(T))));
};

/** Output columns per register tile of every engine. */
constexpr std::size_t kCols = 8;

/** SIMD register width of each build, in bytes. */
template <KernelBuild B>
inline constexpr std::size_t kVecBytes =
    B == KernelBuild::X86_64_V3 ? 32 : 16;

/** Grow a per-thread scratch buffer to @p size elements; keeps capacity. */
template <typename T>
T *
scratch(std::vector<T> &buf, std::size_t size)
{
    if (buf.size() < size)
        buf.resize(size);
    return buf.data();
}

/** roundToBf16 on every lane of @p v, in place, with the same integer
 *  steps. */
template <typename F>
[[gnu::always_inline]] inline void
roundToBf16Lanes(F &v)
{
    using U = typename VecN<std::uint32_t, sizeof(F) / 4>::type;
    const U bits = __builtin_bit_cast(U, v);
    const U rounded = (bits + (0x7FFFu + ((bits >> 16) & 1u))) &
                      0xFFFF0000u;
    const U quiet = (bits | 0x00400000u) & 0xFFFF0000u;
    v = __builtin_bit_cast(F, v != v ? quiet : rounded);
}

/** Whether any lane of the comparison mask @p mask is set. */
template <typename I>
[[gnu::always_inline]] inline bool
anyLane(const I &mask)
{
    std::uint64_t words[sizeof(I) / 8];
    std::memcpy(words, &mask, sizeof words);
    std::uint64_t any = 0;
    for (std::uint64_t w : words)
        any |= w;
    return any != 0;
}

/** Round @p len floats to bfloat16 precision, four lanes at a time. */
[[gnu::always_inline]] inline void
roundAllToBf16(const float *in, std::size_t len, float *out)
{
    std::size_t i = 0;
    for (; i + 4 <= len; i += 4) {
        F32x4 v;
        std::memcpy(&v, in + i, sizeof v);
        roundToBf16Lanes(v);
        std::memcpy(out + i, &v, sizeof v);
    }
    for (; i < len; ++i)
        out[i] = roundToBf16(in[i]);
}

// ---------------------------------------------------------------------
// fp32 and bfloat16: register tiles over Acc accumulators.

/**
 * Operands and per-thread scratch of one fp32 or bfloat16 multiply. The
 * bfloat16 engine's operands live in bfloat16 buffers, so they are
 * rounded once, as they are packed.
 */
template <typename Acc>
struct FloatArgs
{
    const float *a, *b; //!< m x k and k x n row-major, as given
    float *c;           //!< m x n row-major
    std::size_t m, k, n;
    bool accumulate;
    Acc *a_pack; //!< m x k scratch: A in Acc (bfloat16: rounded)
    Acc *panel;  //!< k x kCols scratch: one zero-padded panel of B
};

/**
 * Rows of one fp32/bfloat16 register tile. 4 rows x 8 columns take 8 of
 * the AVX2 build's 16 registers as double accumulators and 4 as float;
 * with SSE2's 2-lane doubles, 2 rows already take 8.
 */
template <KernelBuild B, typename Acc>
inline constexpr std::size_t kFloatRows =
    kVecBytes<B> / sizeof(Acc) >= 4 ? 4 : 2;

/**
 * C[0..R) x [0..cols) = A x B (+ C) for R rows of A (row stride k) and a
 * k x 8 panel of B. Output (r, t) starts from C or zero and adds
 * a[r][p] * b[p][t] for p = 0..k-1 in order, exactly like the naive
 * triple loop; tiling only changes which outputs are in flight together.
 */
template <KernelBuild B, typename Acc, std::size_t R>
[[gnu::always_inline]] inline void
floatTile(const Acc *a, std::size_t k, const Acc *panel, float *c,
          std::size_t ldc, std::size_t cols, bool accumulate)
{
    constexpr std::size_t kLanes = kVecBytes<B> / sizeof(Acc);
    constexpr std::size_t kW = kCols / kLanes;
    using V = typename VecN<Acc, kLanes>::type;

    V acc[R][kW];
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
        Acc init[kCols] = {};
        for (std::size_t t = 0; accumulate && t < cols; ++t)
            init[t] = c[r * ldc + t];
        std::memcpy(acc[r], init, sizeof init);
    }
    for (std::size_t p = 0; p < k; ++p) {
        V bv[kW];
#pragma GCC unroll 4
        for (std::size_t w = 0; w < kW; ++w)
            std::memcpy(&bv[w], panel + p * kCols + w * kLanes, sizeof(V));
#pragma GCC unroll 4
        for (std::size_t r = 0; r < R; ++r) {
            const Acc av = a[r * k + p];
#pragma GCC unroll 4
            for (std::size_t w = 0; w < kW; ++w)
                acc[r][w] += av * bv[w];
        }
    }
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
        Acc out[kCols];
        std::memcpy(out, acc[r], sizeof out);
        for (std::size_t t = 0; t < cols; ++t)
            c[r * ldc + t] = static_cast<float>(out[t]);
    }
}

/** Widen (fp32) or round (bfloat16) four floats to Acc at @p out. */
template <typename Acc>
[[gnu::always_inline]] inline void
packOperand4(const float *in, Acc *out)
{
    F32x4 v;
    std::memcpy(&v, in, sizeof v);
    if constexpr (std::is_same_v<Acc, float>) {
        roundToBf16Lanes(v);
        std::memcpy(out, &v, sizeof v);
    } else {
        const F64x4 d = __builtin_convertvector(v, F64x4);
        std::memcpy(out, &d, sizeof d);
    }
}

/**
 * Row-major C = A x B (+ C) over Acc accumulators: double for fp32 and
 * float for bfloat16, whose operands are rounded to bfloat16 first and
 * whose outputs are rounded back. Both products are exact in Acc (fp32 x
 * fp32 in double, bfloat16 x bfloat16 in float). Each operand is
 * converted to Acc once: A whole, B one 8-column panel at a time.
 */
template <KernelBuild B, typename Acc>
[[gnu::always_inline]] inline void
floatGemm(const FloatArgs<Acc> &f)
{
    constexpr bool kBf16 = std::is_same_v<Acc, float>;
    constexpr std::size_t kRows = kFloatRows<B, Acc>;
    const std::size_t m = f.m, k = f.k, n = f.n;
    auto to_acc = [](float v) {
        return static_cast<Acc>(kBf16 ? roundToBf16(v) : v);
    };
    std::size_t i = 0;
    for (; i + 4 <= m * k; i += 4)
        packOperand4(f.a + i, f.a_pack + i);
    for (; i < m * k; ++i)
        f.a_pack[i] = to_acc(f.a[i]);

    for (std::size_t j = 0; j < n; j += kCols) {
        const std::size_t cols = std::min(kCols, n - j);
        for (std::size_t p = 0; p < k; ++p) {
            const float *row = f.b + p * n + j;
            Acc *out = f.panel + p * kCols;
            if (cols == kCols) {
                packOperand4(row, out);
                packOperand4(row + 4, out + 4);
            } else {
                // A ragged last panel is zero-padded; the padding columns
                // are never stored.
                for (std::size_t t = 0; t < kCols; ++t)
                    out[t] = t < cols ? to_acc(row[t]) : Acc{0};
            }
        }
        for (i = 0; i + kRows <= m; i += kRows) {
            floatTile<B, Acc, kRows>(f.a_pack + i * k, k, f.panel,
                                     f.c + i * n + j, n, cols,
                                     f.accumulate);
        }
        for (; i < m; ++i) {
            floatTile<B, Acc, 1>(f.a_pack + i * k, k, f.panel,
                                 f.c + i * n + j, n, cols, f.accumulate);
        }
    }
    if constexpr (kBf16)
        roundAllToBf16(f.c, m * n, f.c);
}

/** fp32 (Acc = double) or bfloat16 (Acc = float). */
template <typename AccT>
struct FloatKernel
{
    using Acc = AccT;
    using Args = FloatArgs<Acc>;
    template <KernelBuild B>
    [[gnu::always_inline]] static void run(const Args &args)
    {
        floatGemm<B, Acc>(args);
    }
};

// ---------------------------------------------------------------------
// hbfp8 when no block can clip its register: exact int32 arithmetic.

/**
 * Operands and per-thread panels of one HbfpGemm::multiply. Every k-block
 * of a row of A is a pair-padded strip of bstride int16 mantissas (zero
 * past the block's length). B is cut into 8-column panels; each
 * panel's k-block holds its rows in pairs, interleaved column by column
 * (b[p][0], b[p+1][0], b[p][1], b[p+1][1], ...), which is the operand
 * layout of a pairwise multiply-add (pmaddwd).
 */
struct HbfpArgs
{
    const float *a, *b;
    float *c;
    std::size_t m, k, n;
    bool accumulate;
    BfpFormat fmt;
    std::size_t block_len;
    std::size_t nblocks; //!< ceil(k / block_len)
    std::size_t bstride; //!< min(block_len, k) rounded up to even
    std::int16_t *am;    //!< m x nblocks strips of bstride mantissas
    std::int32_t *ae;    //!< m x nblocks exponents
    std::int16_t *bm;    //!< panels x nblocks blocks of bstride x 8
    std::int32_t *be;    //!< panels x nblocks x 8 exponents
};

/**
 * Eight int32 column sums of pairwise int16 products: the one part of the
 * kernels written per build, since GCC's vector extensions cannot spell
 * pmaddwd. Exact while no partial sum leaves int32, which
 * bfpDotCannotClip guarantees; mantissas have at most 15 bits, so a pair
 * of products cannot overflow either.
 */
template <KernelBuild B>
struct PairDot;

template <>
struct PairDot<KernelBuild::Baseline>
{
    __m128i lo = _mm_setzero_si128(), hi = _mm_setzero_si128();

    /** Column c += b[2c] * low(a_pair) + b[2c + 1] * high(a_pair). */
    [[gnu::always_inline]] void
    add(const std::int16_t *b, std::int32_t a_pair)
    {
        const __m128i av = _mm_set1_epi32(a_pair);
        const auto *bv = reinterpret_cast<const __m128i *>(b);
        lo = _mm_add_epi32(lo, _mm_madd_epi16(_mm_loadu_si128(bv), av));
        hi = _mm_add_epi32(hi, _mm_madd_epi16(_mm_loadu_si128(bv + 1), av));
    }

    [[gnu::always_inline]] void
    store(std::int32_t *out) const
    {
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out), lo);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + 4), hi);
    }
};

// Not always_inline: GCC may not inline an AVX2 function into the
// default-ISA body template, only into runV3 once the body is inlined
// there, which it does.
template <>
struct PairDot<KernelBuild::X86_64_V3>
{
    __m256i sum;

    [[gnu::target("arch=x86-64-v3")]] PairDot()
        : sum(_mm256_setzero_si256())
    {
    }

    [[gnu::target("arch=x86-64-v3")]] void
    add(const std::int16_t *b, std::int32_t a_pair)
    {
        const auto *bv = reinterpret_cast<const __m256i *>(b);
        sum = _mm256_add_epi32(
            sum, _mm256_madd_epi16(_mm256_loadu_si256(bv),
                                   _mm256_set1_epi32(a_pair)));
    }

    [[gnu::target("arch=x86-64-v3")]] void
    store(std::int32_t *out) const
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out), sum);
    }
};

/**
 * bfpQuantizeValue on four lanes with per-lane scales: the same double
 * operations in the same order, so the same mantissas.
 */
[[gnu::always_inline]] inline I32x4
quantize4(F32x4 v, const F64x4 &scale, double mmax)
{
    const F64x4 vd = __builtin_convertvector(v, F64x4);
    F64x4 x = vd * scale;
    // x - x is +0 exactly when x is finite.
    const I64x4 finite = (x - x) == F64x4{};
    // std::isnan(v) ? 0 : std::copysign(mmax, v)
    const I64x4 sign = __builtin_bit_cast(I64x4, vd) &
                       std::numeric_limits<std::int64_t>::min();
    const I64x4 inf_bits = sign | __builtin_bit_cast(std::int64_t, mmax);
    const F64x4 nonfinite =
        vd != vd ? F64x4{} : __builtin_bit_cast(F64x4, inf_bits);
    x = finite ? x : nonfinite;
    // roundHalfEven, lane by lane.
    constexpr double kRoundHalfEven = 0x1.8p52;
    F64x4 q = (x + kRoundHalfEven) - kRoundHalfEven;
    const F64x4 lo = -mmax - F64x4{}, hi = mmax - F64x4{};
    // std::clamp(q, lo, hi); q is never NaN here.
    q = q < lo ? lo : q;
    q = hi < q ? hi : q;
    return __builtin_convertvector(q, I32x4);
}

/** The largest |v| of a strip, skipping NaNs as std::max does. */
[[gnu::always_inline]] inline float
maxAbs4(F32x4 v)
{
    return std::max(std::max(v[0], v[1]), std::max(v[2], v[3]));
}

/** Lane-wise |v|. */
[[gnu::always_inline]] inline F32x4
abs4(F32x4 v)
{
    return __builtin_bit_cast(F32x4, __builtin_bit_cast(I32x4, v) & 0x7FFFFFFF);
}

/** Lane-wise running maximum that keeps @p m when @p v is NaN. */
[[gnu::always_inline]] inline F32x4
max4(F32x4 m, F32x4 v)
{
    return m < v ? v : m;
}

/**
 * Quantize one contiguous strip of A (bfpQuantizeStrip's semantics) into
 * @p out, zero-padded to @p padded mantissas; returns its exponent.
 */
[[gnu::always_inline]] inline std::int32_t
quantizeRowStrip(const float *in, std::size_t len, std::size_t padded,
                 const BfpFormat &fmt, std::int16_t *out)
{
    F32x4 vmax = {};
    std::size_t p = 0;
    for (; p + 4 <= len; p += 4) {
        F32x4 v;
        std::memcpy(&v, in + p, sizeof v);
        vmax = max4(vmax, abs4(v));
    }
    float max_abs = maxAbs4(vmax);
    for (; p < len; ++p)
        max_abs = std::max(max_abs, std::abs(in[p]));

    const std::int32_t e = bfpSharedExponent(max_abs, fmt);
    if (max_abs == 0.0f) {
        std::fill(out, out + padded, std::int16_t{0});
        return e;
    }
    const double scale = bfpMantissaScale(e, fmt);
    const double mmax = fmt.mantissaMax();
    const F64x4 scales = scale - F64x4{};
    for (p = 0; p + 4 <= len; p += 4) {
        F32x4 v;
        std::memcpy(&v, in + p, sizeof v);
        const I16x4 q =
            __builtin_convertvector(quantize4(v, scales, mmax), I16x4);
        std::memcpy(out + p, &q, sizeof q);
    }
    for (; p < len; ++p)
        out[p] = bfpQuantizeValue(in[p], scale, mmax);
    std::fill(out + len, out + padded, std::int16_t{0});
    return e;
}

/** One row of an 8-column panel, zero past @p cols. */
[[gnu::always_inline]] inline void
loadPanelRow(const float *row, std::size_t cols, F32x4 &lo, F32x4 &hi)
{
    float v[kCols] = {};
    if (cols == kCols)
        std::memcpy(v, row, sizeof v);
    else
        std::copy(row, row + cols, v);
    std::memcpy(&lo, v, sizeof lo);
    std::memcpy(&hi, v + 4, sizeof hi);
}

/**
 * Quantize @p len rows (row stride @p n) of an 8-column panel of B: eight
 * column strips with bfpQuantizeStrip's semantics, read along B's rows
 * and written as pair-interleaved mantissas. Columns past @p cols
 * quantize as zero strips.
 */
[[gnu::always_inline]] inline void
quantizePanel(const float *b, std::size_t n, std::size_t cols,
              std::size_t len, const BfpFormat &fmt, std::int16_t *out,
              std::int32_t *exps)
{
    F32x4 max_lo = {}, max_hi = {};
    for (std::size_t p = 0; p < len; ++p) {
        F32x4 lo, hi;
        loadPanelRow(b + p * n, cols, lo, hi);
        max_lo = max4(max_lo, abs4(lo));
        max_hi = max4(max_hi, abs4(hi));
    }
    // A zero column's scale is 0: its values are +-0 or NaN, which both
    // quantize to 0, as bfpQuantizeStrip's zero-block case writes.
    F64x4 scale_lo = {}, scale_hi = {};
    for (std::size_t t = 0; t < kCols; ++t) {
        const float max_abs = t < 4 ? max_lo[t] : max_hi[t - 4];
        exps[t] = bfpSharedExponent(max_abs, fmt);
        const double s =
            max_abs == 0.0f ? 0.0 : bfpMantissaScale(exps[t], fmt);
        if (t < 4)
            scale_lo[t] = s;
        else
            scale_hi[t - 4] = s;
    }

    const double mmax = fmt.mantissaMax();
    auto quantize_row = [&](std::size_t p) {
        F32x4 lo = {}, hi = {};
        if (p < len)
            loadPanelRow(b + p * n, cols, lo, hi);
        const I16x4 qlo =
            __builtin_convertvector(quantize4(lo, scale_lo, mmax), I16x4);
        const I16x4 qhi =
            __builtin_convertvector(quantize4(hi, scale_hi, mmax), I16x4);
        return I16x8(__builtin_shufflevector(qlo, qhi, 0, 1, 2, 3, 4, 5, 6,
                                             7));
    };
    for (std::size_t p = 0; p < len; p += 2) {
        const I16x8 even = quantize_row(p), odd = quantize_row(p + 1);
        const I16x8 left = __builtin_shufflevector(even, odd, 0, 8, 1, 9, 2,
                                                   10, 3, 11);
        const I16x8 right = __builtin_shufflevector(even, odd, 4, 12, 5, 13,
                                                    6, 14, 7, 15);
        std::memcpy(out + p * kCols, &left, sizeof left);
        std::memcpy(out + p * kCols + 8, &right, sizeof right);
    }
}

/**
 * Fold one k-block's dot products of an output row's 8 columns into its
 * bfloat16 accumulators, L lanes at a time: acc = bf16(acc +
 * bf16(bfpDotValue(...))), the scalar epilogue's values lane by lane.
 * Where 2^shift is a normal float, dot * 2^shift is normal or overflows:
 * rounding dot to float and then scaling it exactly by 2^shift gives
 * what bfpDotValue's exact double product rounds to (inf included). A
 * zero dot gives +0 for any shift (zero blocks carry exponentMin). Any
 * other lane, a non-finite or extreme strip's, takes the scalar
 * bfpDotValue.
 */
template <std::size_t L, typename F>
[[gnu::always_inline]] inline void
combineBlock(const std::int32_t *dots, std::int32_t ea,
             const std::int32_t *eb, const BfpFormat &fmt, F *acc)
{
    using I = typename VecN<std::int32_t, L>::type;
    const int frac_bits = 2 * static_cast<int>(fmt.mantissa_bits - 1);
    for (std::size_t h = 0; h < kCols / L; ++h) {
        I d, e;
        std::memcpy(&d, dots + h * L, sizeof d);
        std::memcpy(&e, eb + h * L, sizeof e);
        const I shift = ea + e - frac_bits;
        const I normal = (shift >= -126) & (shift <= 127);
        F partial;
        if (anyLane(~normal & (d != 0))) {
            for (std::size_t t = 0; t < L; ++t)
                partial[t] = bfpDotValue(d[t], ea, eb[h * L + t], fmt);
        } else {
            const I pow2 = ((normal ? shift : I{}) + 127) << 23;
            partial = __builtin_convertvector(d, F) *
                      __builtin_bit_cast(F, pow2);
        }
        roundToBf16Lanes(partial);
        acc[h] += partial;
        roundToBf16Lanes(acc[h]);
    }
}

/**
 * Rows [i, i + R) x the 8-column panel @p jp of C: per k-block, the
 * R x 8 mantissa dots in int32, then combineBlock, blocks in order.
 */
template <KernelBuild B, std::size_t R>
[[gnu::always_inline]] inline void
hbfpTile(const HbfpArgs &h, std::size_t i, std::size_t jp)
{
    constexpr std::size_t kLanes = kVecBytes<B> / sizeof(float);
    using F = typename VecN<float, kLanes>::type;
    const std::size_t j = jp * kCols;
    const std::size_t cols = std::min(kCols, h.n - j);
    F acc[R][kCols / kLanes];
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
        float init[kCols] = {};
        for (std::size_t t = 0; h.accumulate && t < cols; ++t)
            init[t] = h.c[(i + r) * h.n + j + t];
        std::memcpy(acc[r], init, sizeof init);
    }
    for (std::size_t blk = 0; blk < h.nblocks; ++blk) {
        const std::size_t len =
            std::min(h.block_len, h.k - blk * h.block_len);
        const std::int16_t *bp =
            h.bm + (jp * h.nblocks + blk) * h.bstride * kCols;
        const std::int16_t *ap[R];
        for (std::size_t r = 0; r < R; ++r)
            ap[r] = h.am + ((i + r) * h.nblocks + blk) * h.bstride;

        PairDot<B> dot[R];
        for (std::size_t p = 0; p < len; p += 2) {
#pragma GCC unroll 4
            for (std::size_t r = 0; r < R; ++r) {
                std::int32_t a_pair;
                std::memcpy(&a_pair, ap[r] + p, sizeof a_pair);
                dot[r].add(bp + p * kCols, a_pair);
            }
        }
        const std::int32_t *eb = h.be + (jp * h.nblocks + blk) * kCols;
        for (std::size_t r = 0; r < R; ++r) {
            std::int32_t dots[kCols];
            dot[r].store(dots);
            combineBlock<kLanes>(dots, h.ae[(i + r) * h.nblocks + blk], eb,
                                 h.fmt, acc[r]);
        }
    }
    for (std::size_t r = 0; r < R; ++r) {
        float out[kCols];
        std::memcpy(out, acc[r], sizeof out);
        std::copy(out, out + cols, h.c + (i + r) * h.n + j);
    }
}

struct HbfpKernel
{
    using Args = HbfpArgs;

    template <KernelBuild B>
    [[gnu::always_inline]] static void run(const Args &h)
    {
        // Quantize every (row, k-block) strip of A and (k-block, column)
        // strip of B once, the way the hardware does when loading tiles
        // into the activation/weight buffers.
        const std::size_t panels = (h.n + kCols - 1) / kCols;
        for (std::size_t blk = 0; blk < h.nblocks; ++blk) {
            const std::size_t lo = blk * h.block_len;
            const std::size_t len = std::min(h.block_len, h.k - lo);
            for (std::size_t i = 0; i < h.m; ++i) {
                const std::size_t s = i * h.nblocks + blk;
                h.ae[s] = quantizeRowStrip(h.a + i * h.k + lo, len,
                                           h.bstride, h.fmt,
                                           h.am + s * h.bstride);
            }
            for (std::size_t jp = 0; jp < panels; ++jp) {
                const std::size_t s = jp * h.nblocks + blk;
                const std::size_t j = jp * kCols;
                quantizePanel(h.b + lo * h.n + j, h.n,
                              std::min(kCols, h.n - j), len, h.fmt,
                              h.bm + s * h.bstride * kCols,
                              h.be + s * kCols);
            }
        }

        constexpr std::size_t kRows = 4;
        for (std::size_t jp = 0; jp < panels; ++jp) {
            std::size_t i = 0;
            for (; i + kRows <= h.m; i += kRows)
                hbfpTile<B, kRows>(h, i, jp);
            for (; i < h.m; ++i)
                hbfpTile<B, 1>(h, i, jp);
        }
    }
};

// ---------------------------------------------------------------------
// The two builds of each kernel, and the choice between them.

template <typename Kernel>
[[gnu::noinline]] void
runBaseline(const typename Kernel::Args &args)
{
    Kernel::template run<KernelBuild::Baseline>(args);
}

template <typename Kernel>
[[gnu::noinline, gnu::target("arch=x86-64-v3")]] void
runV3(const typename Kernel::Args &args)
{
    Kernel::template run<KernelBuild::X86_64_V3>(args);
}

template <typename Kernel>
void
runKernel(KernelBuild build, const typename Kernel::Args &args)
{
    EQX_ASSERT(kernelBuildSupported(build),
               "this CPU cannot run the x86-64-v3 kernels");
    if (build == KernelBuild::X86_64_V3)
        runV3<Kernel>(args);
    else
        runBaseline<Kernel>(args);
}

/** Run the fp32 or bfloat16 kernel with this thread's scratch. */
template <typename Kernel>
void
runFloatKernel(KernelBuild build, const Matrix &a, const Matrix &b,
               Matrix &c, bool accumulate)
{
    thread_local std::vector<typename Kernel::Acc> a_pack, panel;
    const typename Kernel::Args args{
        a.data(), b.data(), c.data(), a.rows(), a.cols(), b.cols(),
        accumulate, scratch(a_pack, a.size()),
        scratch(panel, a.cols() * kCols)};
    runKernel<Kernel>(build, args);
}

/**
 * The hbfp8 GEMM when a k-block's register can clip: strided strip
 * quantization, bfpDotTile's per-step clamped int64 loop and the scalar
 * epilogue.
 */
void
clampedHbfp(const Matrix &a, const Matrix &b, Matrix &c, bool accumulate,
            const BfpFormat &fmt, std::size_t block_len)
{
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    const std::size_t nblocks = (k + block_len - 1) / block_len;

    // The mantissa panels keep the operands' row-major layouts (A: m x k,
    // B: k x n); the exponent panels are m x nblocks and nblocks x n.
    std::vector<std::int16_t> am(m * k), bm(k * n);
    std::vector<std::int32_t> ae(m * nblocks), be(nblocks * n);
    for (std::size_t blk = 0; blk < nblocks; ++blk) {
        const std::size_t lo = blk * block_len;
        const std::size_t len = std::min(block_len, k - lo);
        for (std::size_t i = 0; i < m; ++i) {
            ae[i * nblocks + blk] = bfpQuantizeStrip(
                a.rowPtr(i) + lo, 1, len, fmt, &am[i * k + lo]);
        }
        for (std::size_t j = 0; j < n; ++j) {
            be[blk * n + j] = bfpQuantizeStrip(
                b.rowPtr(lo) + j, n, len, fmt, &bm[lo * n + j]);
        }
    }

    for (std::size_t i = 0; i < m; ++i) {
        float *crow = c.rowPtr(i);
        for (std::size_t j = 0; j < n; j += kBfpDotTile) {
            const std::size_t cols = std::min(kBfpDotTile, n - j);
            float acc[kBfpDotTile] = {};
            for (std::size_t t = 0; t < cols; ++t)
                acc[t] = accumulate ? crow[j + t] : 0.0f;
            for (std::size_t blk = 0; blk < nblocks; ++blk) {
                const std::size_t lo = blk * block_len;
                const std::size_t len = std::min(block_len, k - lo);
                std::int64_t dots[kBfpDotTile] = {};
                bfpDotTile(&am[i * k + lo], &bm[lo * n + j], n, len, cols,
                           fmt, dots);
                for (std::size_t t = 0; t < cols; ++t) {
                    float partial = bfpDotValue(
                        dots[t], ae[i * nblocks + blk], be[blk * n + j + t],
                        fmt);
                    acc[t] = roundToBf16(acc[t] + roundToBf16(partial));
                }
            }
            std::copy(acc, acc + cols, crow + j);
        }
    }
}

} // namespace

void
Fp32Gemm::multiply(const Matrix &a, const Matrix &b, Matrix &c,
                   bool accumulate) const
{
    multiplyWith(activeKernelBuild(), a, b, c, accumulate);
}

void
Fp32Gemm::multiplyWith(KernelBuild build, const Matrix &a, const Matrix &b,
                       Matrix &c, bool accumulate) const
{
    checkShapes(a, b, c);
    runFloatKernel<FloatKernel<double>>(build, a, b, c, accumulate);
}

void
Bf16Gemm::multiply(const Matrix &a, const Matrix &b, Matrix &c,
                   bool accumulate) const
{
    multiplyWith(activeKernelBuild(), a, b, c, accumulate);
}

void
Bf16Gemm::multiplyWith(KernelBuild build, const Matrix &a, const Matrix &b,
                       Matrix &c, bool accumulate) const
{
    checkShapes(a, b, c);
    runFloatKernel<FloatKernel<float>>(build, a, b, c, accumulate);
}

HbfpGemm::HbfpGemm(BfpFormat format, std::size_t block_len)
    : fmt(format), block_len_(block_len)
{
    EQX_ASSERT(block_len_ > 0, "BFP block length must be positive");
}

void
HbfpGemm::multiply(const Matrix &a, const Matrix &b, Matrix &c,
                   bool accumulate) const
{
    multiplyWith(activeKernelBuild(), a, b, c, accumulate);
}

void
HbfpGemm::multiplyWith(KernelBuild build, const Matrix &a, const Matrix &b,
                       Matrix &c, bool accumulate) const
{
    checkShapes(a, b, c);
    EQX_ASSERT(fmt.mantissa_bits >= 2 && fmt.mantissa_bits <= 15,
               "unsupported mantissa width ", fmt.mantissa_bits);
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    const std::size_t longest = std::min(block_len_, k);
    if (!bfpDotCannotClip(fmt, longest)) {
        clampedHbfp(a, b, c, accumulate, fmt, block_len_);
        return;
    }

    // Partial block products leave the array as block floating point, get
    // converted to bfloat16 and combined by the SIMD unit (section 3.2),
    // block by block in order.
    const std::size_t nblocks = (k + block_len_ - 1) / block_len_;
    const std::size_t bstride = (longest + 1) / 2 * 2;
    const std::size_t panels = (n + kCols - 1) / kCols;
    thread_local std::vector<std::int16_t> am, bm;
    thread_local std::vector<std::int32_t> ae, be;
    const HbfpArgs args{a.data(), b.data(), c.data(), m, k, n, accumulate,
                        fmt, block_len_, nblocks, bstride,
                        scratch(am, m * nblocks * bstride),
                        scratch(ae, m * nblocks),
                        scratch(bm, panels * nblocks * bstride * kCols),
                        scratch(be, panels * nblocks * kCols)};
    runKernel<HbfpKernel>(build, args);
}

std::unique_ptr<GemmEngine>
makeGemmEngine(Encoding e)
{
    switch (e) {
      case Encoding::Fp32:
        return std::make_unique<Fp32Gemm>();
      case Encoding::Bfloat16:
        return std::make_unique<Bf16Gemm>();
      case Encoding::Hbfp8:
        return std::make_unique<HbfpGemm>();
      default:
        EQX_PANIC("unknown encoding");
    }
}

} // namespace arith
} // namespace equinox
