/**
 * @file
 * A small multi-layer perceptron assembled from DenseLayers with one GEMM
 * engine for all its matrix products.
 */

#ifndef EQUINOX_NN_MLP_HH
#define EQUINOX_NN_MLP_HH

#include <memory>
#include <vector>

#include "arith/gemm.hh"
#include "nn/layers.hh"

namespace equinox
{
namespace nn
{

/** Feed-forward network: dims[0] -> dims[1] -> ... -> dims.back(). */
class Mlp
{
  public:
    /**
     * @param dims layer widths including input and output
     * @param hidden_act activation of every layer except the last (which
     *        is linear; the loss applies softmax)
     * @param engine the arithmetic engine; not owned, must outlive the Mlp
     * @param rng weight-initialisation stream
     */
    Mlp(const std::vector<std::size_t> &dims, Activation hidden_act,
        const arith::GemmEngine &engine, Rng &rng);

    /** Forward pass over a batch; returns logits. */
    Matrix forward(const Matrix &x);

    /** Backward pass from logit gradients; caches layer gradients. */
    void backward(const Matrix &logit_grad);

    /** Apply one SGD step to all layers. */
    void step(double lr, double momentum);

    const DenseLayer &layer(std::size_t i) const { return layers.at(i); }

  private:
    std::vector<DenseLayer> layers;
    const arith::GemmEngine &engine_;
};

} // namespace nn
} // namespace equinox

#endif // EQUINOX_NN_MLP_HH
