#include "arith/tensor.hh"

#include <xmmintrin.h>

#include <algorithm>
#include <cmath>

namespace equinox
{
namespace arith
{

Matrix
Matrix::transposed() const
{
    // 4x4 tiles go through SSE registers, the ragged edges one element
    // at a time. Loads, shuffles and stores only: every bit is kept,
    // NaN payloads included.
    Matrix t(cols_, rows_);
    const std::size_t rows = rows_, cols = cols_;
    const float *src = data_.data();
    float *dst = t.data_.data();
    std::size_t r = 0;
    for (; r + 4 <= rows; r += 4) {
        const float *s = src + r * cols;
        std::size_t c = 0;
        for (; c + 4 <= cols; c += 4) {
            __m128 r0 = _mm_loadu_ps(s + c);
            __m128 r1 = _mm_loadu_ps(s + cols + c);
            __m128 r2 = _mm_loadu_ps(s + 2 * cols + c);
            __m128 r3 = _mm_loadu_ps(s + 3 * cols + c);
            _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
            _mm_storeu_ps(dst + c * rows + r, r0);
            _mm_storeu_ps(dst + (c + 1) * rows + r, r1);
            _mm_storeu_ps(dst + (c + 2) * rows + r, r2);
            _mm_storeu_ps(dst + (c + 3) * rows + r, r3);
        }
        for (; c < cols; ++c)
            for (std::size_t k = 0; k < 4; ++k)
                dst[c * rows + r + k] = s[k * cols + c];
    }
    for (; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            dst[c * rows + r] = src[r * cols + c];
    return t;
}

double
Matrix::frobeniusNorm() const
{
    double s = 0.0;
    for (float v : data_)
        s += static_cast<double>(v) * static_cast<double>(v);
    return std::sqrt(s);
}

float
Matrix::maxAbs() const
{
    float m = 0.0f;
    for (float v : data_)
        m = std::max(m, std::abs(v));
    return m;
}

double
maxAbsDiff(const Matrix &a, const Matrix &b)
{
    EQX_ASSERT(a.rows() == b.rows() && a.cols() == b.cols(),
               "shape mismatch in maxAbsDiff");
    double m = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        double d = std::abs(static_cast<double>(a.data()[i]) -
                            static_cast<double>(b.data()[i]));
        m = std::max(m, d);
    }
    return m;
}

} // namespace arith
} // namespace equinox
