#include "nn/optimizer.hh"

#include "common/logging.hh"

namespace equinox
{
namespace nn
{

namespace
{

void
sgdMomentumUpdate(float *__restrict weights, float *__restrict grad,
                  float *__restrict velocity, float lr, float momentum,
                  std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        float v = momentum * velocity[i] - lr * grad[i];
        velocity[i] = v;
        weights[i] += v;
        grad[i] = 0.0f;
    }
}

} // namespace

double
SgdConfig::rateForEpoch(std::size_t epoch) const
{
    double rate = learning_rate;
    for (std::size_t e : decay_epochs) {
        if (epoch >= e)
            rate *= decay_factor;
    }
    return rate;
}

void
sgdMomentumStep(arith::Matrix &weights, arith::Matrix &grad,
                arith::Matrix &velocity, double lr, double momentum)
{
    EQX_ASSERT(grad.size() == weights.size() &&
                   velocity.size() == weights.size(),
               "SGD step over mismatched tensors");
    sgdMomentumUpdate(weights.data(), grad.data(), velocity.data(),
                      static_cast<float>(lr), static_cast<float>(momentum),
                      weights.size());
}

} // namespace nn
} // namespace equinox
