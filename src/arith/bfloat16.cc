#include "arith/bfloat16.hh"

namespace equinox
{
namespace arith
{

Bfloat16
Bfloat16::fromBits(std::uint16_t b)
{
    Bfloat16 r;
    r.bits_ = b;
    return r;
}

Bfloat16
Bfloat16::operator+(Bfloat16 o) const
{
    return Bfloat16(toFloat() + o.toFloat());
}

Bfloat16
Bfloat16::operator-(Bfloat16 o) const
{
    return Bfloat16(toFloat() - o.toFloat());
}

Bfloat16
Bfloat16::operator*(Bfloat16 o) const
{
    return Bfloat16(toFloat() * o.toFloat());
}

Bfloat16
Bfloat16::operator/(Bfloat16 o) const
{
    return Bfloat16(toFloat() / o.toFloat());
}

Bfloat16
Bfloat16::operator-() const
{
    return Bfloat16(-toFloat());
}

} // namespace arith
} // namespace equinox
