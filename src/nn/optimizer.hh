/**
 * @file
 * SGD hyper-parameters and learning-rate schedules.
 */

#ifndef EQUINOX_NN_OPTIMIZER_HH
#define EQUINOX_NN_OPTIMIZER_HH

#include <cstddef>
#include <vector>

#include "arith/tensor.hh"

namespace equinox
{
namespace nn
{

/** Plain SGD-with-momentum hyper-parameters plus a step-decay schedule. */
struct SgdConfig
{
    double learning_rate = 0.05;
    double momentum = 0.9;
    /** Multiply the rate by decay_factor at each epoch in decay_epochs. */
    double decay_factor = 0.1;
    std::vector<std::size_t> decay_epochs;

    /** Effective learning rate for @p epoch (0-based). */
    double rateForEpoch(std::size_t epoch) const;
};

/**
 * One SGD-with-momentum update of a parameter tensor, in binary32:
 * v = momentum * v - lr * grad; weights += v; grad = 0.
 */
void sgdMomentumStep(arith::Matrix &weights, arith::Matrix &grad,
                     arith::Matrix &velocity, double lr, double momentum);

} // namespace nn
} // namespace equinox

#endif // EQUINOX_NN_OPTIMIZER_HH
