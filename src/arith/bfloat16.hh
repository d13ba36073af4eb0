/**
 * @file
 * Software bfloat16: the 16-bit brain floating-point encoding used by the
 * SIMD unit and by the bfloat16 MMU variant (truncated-significand IEEE
 * binary32 with round-to-nearest-even).
 */

#ifndef EQUINOX_ARITH_BFLOAT16_HH
#define EQUINOX_ARITH_BFLOAT16_HH

#include <bit>
#include <cmath>
#include <cstdint>

namespace equinox
{
namespace arith
{

/**
 * A bfloat16 value: 1 sign, 8 exponent, 7 mantissa bits.
 *
 * Stored as the upper half of the equivalent binary32 pattern. All
 * arithmetic is performed by widening to float (which is exact) and
 * re-rounding, matching hardware that keeps fp32 accumulators.
 */
class Bfloat16
{
  public:
    Bfloat16() = default;

    /** Round a binary32 value to bfloat16 (round-to-nearest-even). */
    explicit Bfloat16(float v) : bits_(roundFromFloat(v)) {}

    /** Widen to binary32; exact. */
    float toFloat() const;

    /** Raw 16-bit pattern. */
    std::uint16_t bits() const { return bits_; }

    /** Build from a raw 16-bit pattern. */
    static Bfloat16 fromBits(std::uint16_t b);

    /** Round-to-nearest-even conversion from binary32 bits. */
    static std::uint16_t roundFromFloat(float v);

    Bfloat16 operator+(Bfloat16 o) const;
    Bfloat16 operator-(Bfloat16 o) const;
    Bfloat16 operator*(Bfloat16 o) const;
    Bfloat16 operator/(Bfloat16 o) const;
    Bfloat16 operator-() const;

    bool operator==(Bfloat16 o) const { return bits_ == o.bits_; }

  private:
    std::uint16_t bits_ = 0;
};

// Inline: the GEMM engines round every partial sum through these.

inline std::uint16_t
Bfloat16::roundFromFloat(float v)
{
    std::uint32_t bits = std::bit_cast<std::uint32_t>(v);

    if (std::isnan(v)) {
        // Quiet NaN, preserving the sign.
        return static_cast<std::uint16_t>((bits >> 16) | 0x0040u);
    }

    // Round to nearest even on the 16 discarded bits.
    std::uint32_t lsb = (bits >> 16) & 1u;
    std::uint32_t rounding_bias = 0x7FFFu + lsb;
    bits += rounding_bias;
    return static_cast<std::uint16_t>(bits >> 16);
}

inline float
Bfloat16::toFloat() const
{
    std::uint32_t wide = static_cast<std::uint32_t>(bits_) << 16;
    return std::bit_cast<float>(wide);
}

/** Convenience: round a float through bfloat16 precision and widen back. */
inline float
roundToBf16(float v)
{
    return Bfloat16(v).toFloat();
}

} // namespace arith
} // namespace equinox

#endif // EQUINOX_ARITH_BFLOAT16_HH
