#include "arith/gemm.hh"

#include <algorithm>
#include <cstdint>
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

/** Output columns per register tile of the floating-point kernels. */
constexpr std::size_t kTile = 8;

/**
 * Row-major C = A x B (+ C) over @p Acc accumulators: output (i, j) starts
 * from C or zero and adds a[i][p] * b[p][j] for p = 0 .. k-1 in order,
 * exactly like the naive triple loop. The i -> 8-column tile -> p order
 * only streams B's rows instead of its columns. Both callers' products
 * are exact in Acc (fp32 x fp32 in double, bfloat16 x bfloat16 in float),
 * so not even a fused multiply-add could change a sum.
 */
template <typename Acc>
void
tiledGemm(const float *a, const float *b, float *c, std::size_t m,
          std::size_t k, std::size_t n, bool accumulate)
{
    for (std::size_t i = 0; i < m; ++i) {
        const float *arow = a + i * k;
        float *crow = c + i * n;
        std::size_t j = 0;
        for (; j + kTile <= n; j += kTile) {
            Acc acc[kTile];
            for (std::size_t t = 0; t < kTile; ++t)
                acc[t] = accumulate ? crow[j + t] : Acc{0};
            for (std::size_t p = 0; p < k; ++p) {
                const Acc av = arow[p];
                const float *brow = b + p * n + j;
                // Fully unrolled, the tile stays in registers.
#pragma GCC unroll 8
                for (std::size_t t = 0; t < kTile; ++t)
                    acc[t] += av * static_cast<Acc>(brow[t]);
            }
            for (std::size_t t = 0; t < kTile; ++t)
                crow[j + t] = static_cast<float>(acc[t]);
        }
        for (; j < n; ++j) {
            Acc acc = accumulate ? crow[j] : Acc{0};
            for (std::size_t p = 0; p < k; ++p)
                acc += static_cast<Acc>(arow[p]) *
                       static_cast<Acc>(b[p * n + j]);
            crow[j] = static_cast<float>(acc);
        }
    }
}

} // namespace

void
Fp32Gemm::multiply(const Matrix &a, const Matrix &b, Matrix &c,
                   bool accumulate) const
{
    checkShapes(a, b, c);
    tiledGemm<double>(a.data(), b.data(), c.data(), a.rows(), a.cols(),
                      b.cols(), accumulate);
}

void
Bf16Gemm::multiply(const Matrix &a, const Matrix &b, Matrix &c,
                   bool accumulate) const
{
    checkShapes(a, b, c);

    // Pre-round the operands once (they live in bfloat16 buffers).
    std::vector<float> ar(a.size()), br(b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ar[i] = roundToBf16(a.data()[i]);
    for (std::size_t i = 0; i < b.size(); ++i)
        br[i] = roundToBf16(b.data()[i]);

    // fp32 accumulator, as in TPU-class hardware; output back to bfloat16.
    tiledGemm<float>(ar.data(), br.data(), c.data(), a.rows(), a.cols(),
                     b.cols(), accumulate);
    for (std::size_t i = 0; i < c.size(); ++i)
        c.data()[i] = roundToBf16(c.data()[i]);
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
    checkShapes(a, b, c);
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    const std::size_t nblocks = (k + block_len_ - 1) / block_len_;

    // Quantize every (row, k-block) strip of A and (k-block, col) strip of
    // B once, the way the hardware does when loading tiles into the
    // activation/weight buffers. The mantissa panels keep the operands'
    // row-major layouts (A: m x k, B: k x n); the exponent panels are
    // m x nblocks and nblocks x n.
    std::vector<std::int16_t> am(m * k), bm(k * n);
    std::vector<std::int32_t> ae(m * nblocks), be(nblocks * n);
    for (std::size_t blk = 0; blk < nblocks; ++blk) {
        const std::size_t lo = blk * block_len_;
        const std::size_t len = std::min(block_len_, k - lo);
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
            // Partial block products leave the array as block floating
            // point, get converted to bfloat16 and combined by the SIMD
            // unit (section 3.2), block by block in order.
            float acc[kBfpDotTile] = {};
            for (std::size_t t = 0; t < cols; ++t)
                acc[t] = accumulate ? crow[j + t] : 0.0f;
            for (std::size_t blk = 0; blk < nblocks; ++blk) {
                const std::size_t lo = blk * block_len_;
                const std::size_t len = std::min(block_len_, k - lo);
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
