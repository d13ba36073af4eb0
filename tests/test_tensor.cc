/**
 * @file
 * Unit tests for the Matrix container.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "arith/tensor.hh"
#include "common/random.hh"

namespace equinox
{
namespace arith
{
namespace
{

TEST(Matrix, ConstructionAndFill)
{
    Matrix m(2, 3, 1.5f);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_EQ(m.size(), 6u);
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            EXPECT_EQ(m.at(r, c), 1.5f);
    m.zero();
    EXPECT_EQ(m.at(1, 2), 0.0f);
}

TEST(Matrix, RowMajorLayout)
{
    Matrix m(2, 3);
    float v = 0.0f;
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            m.at(r, c) = v++;
    // rowPtr(1) points at element (1, 0) = 3.
    EXPECT_EQ(m.rowPtr(1)[0], 3.0f);
    EXPECT_EQ(m.data()[5], 5.0f);
}

TEST(Matrix, TransposedInvolution)
{
    Rng rng(1);
    Matrix m(5, 7);
    m.randomize(rng, 1.0);
    Matrix tt = m.transposed().transposed();
    EXPECT_EQ(maxAbsDiff(m, tt), 0.0);
    Matrix t = m.transposed();
    EXPECT_EQ(t.rows(), 7u);
    EXPECT_EQ(t.cols(), 5u);
    EXPECT_EQ(t.at(3, 2), m.at(2, 3));
}

TEST(Matrix, TransposedKeepsEveryBitOnRaggedShapes)
{
    // Shapes on both sides of the 4x4 tiles; each element is a distinct
    // bit pattern, NaN payloads and signalling NaNs included.
    for (std::size_t rows = 1; rows <= 9; ++rows) {
        for (std::size_t cols = 1; cols <= 9; ++cols) {
            Matrix m(rows, cols);
            for (std::size_t i = 0; i < m.size(); ++i)
                m.data()[i] = std::bit_cast<float>(
                    static_cast<std::uint32_t>(i % 3 == 0 ? 0x7f800001u + i
                                                          : 0x3f800000u + i));
            Matrix t = m.transposed();
            ASSERT_EQ(t.rows(), cols);
            ASSERT_EQ(t.cols(), rows);
            for (std::size_t r = 0; r < rows; ++r)
                for (std::size_t c = 0; c < cols; ++c)
                    EXPECT_EQ(std::bit_cast<std::uint32_t>(t.at(c, r)),
                              std::bit_cast<std::uint32_t>(m.at(r, c)))
                        << rows << "x" << cols << " at " << r << "," << c;
        }
    }
}

TEST(Matrix, FrobeniusNorm)
{
    Matrix m(1, 2);
    m.at(0, 0) = 3.0f;
    m.at(0, 1) = 4.0f;
    EXPECT_DOUBLE_EQ(m.frobeniusNorm(), 5.0);
}

TEST(Matrix, MaxAbs)
{
    Matrix m(2, 2);
    m.at(0, 0) = -9.0f;
    m.at(1, 1) = 4.0f;
    EXPECT_EQ(m.maxAbs(), 9.0f);
}

TEST(Matrix, MaxAbsDiff)
{
    Matrix a(2, 2, 1.0f), b(2, 2, 1.0f);
    b.at(1, 0) = 3.5f;
    EXPECT_DOUBLE_EQ(maxAbsDiff(a, b), 2.5);
}

TEST(Matrix, RandomizeMoments)
{
    Rng rng(2);
    Matrix m(100, 100);
    m.randomize(rng, 0.5);
    double sum = 0.0, sq = 0.0;
    for (std::size_t i = 0; i < m.size(); ++i) {
        sum += m.data()[i];
        sq += static_cast<double>(m.data()[i]) * m.data()[i];
    }
    double mean = sum / m.size();
    double var = sq / m.size() - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.02);
    EXPECT_NEAR(var, 0.25, 0.02);
}

} // namespace
} // namespace arith
} // namespace equinox
