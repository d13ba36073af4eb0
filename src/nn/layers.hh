/**
 * @file
 * Neural-network layers with a pluggable GEMM engine.
 *
 * All matrix products (forward, input-gradient and weight-gradient) run
 * through an arith::GemmEngine, so the identical SGD loop can train in
 * fp32, bfloat16 or hbfp8 arithmetic -- the setup behind Figure 2. Element
 * wise operations run in binary32, standing in for the bfloat16 SIMD unit
 * (whose precision exceeds fp32's only in range, not in the behaviours the
 * figure compares).
 */

#ifndef EQUINOX_NN_LAYERS_HH
#define EQUINOX_NN_LAYERS_HH

#include <memory>

#include "arith/gemm.hh"
#include "arith/tensor.hh"
#include "common/random.hh"

namespace equinox
{
namespace nn
{

using arith::Matrix;

/** Elementwise nonlinearity selector. */
enum class Activation
{
    None,
    Relu,
    Tanh,
};

/**
 * Apply @p act elementwise. ReLU is std::max(0.0f, x): NaN and -0 both
 * map to +0.
 */
void applyActivation(Activation act, Matrix &m);

/**
 * Multiply @p upstream by the activation derivative evaluated at the
 * pre-activation output @p activated (both ReLU and tanh derivatives are
 * expressible from the activated value). ReLU zeroes @p upstream where
 * @p activated <= 0 and keeps it elsewhere, NaN included.
 */
void applyActivationGrad(Activation act, const Matrix &activated,
                         Matrix &upstream);

/**
 * m = act(m + bias) in one pass, with the 1 x m.cols() @p bias added to
 * every row: bit for bit the bias add followed by applyActivation().
 */
void addBiasActivate(Activation act, const Matrix &bias, Matrix &m);

/** col_sums(0, c) += sum over rows r of m(r, c), rows in order. */
void addColumnSums(const Matrix &m, Matrix &col_sums);

/**
 * One pass of the backward step through @p act: returns @p upstream
 * multiplied by the derivative at @p activated (applyActivationGrad()'s
 * bits) and adds its column sums to @p col_sums (addColumnSums()'s bits),
 * the bias gradient.
 */
Matrix activationGradColumnSums(Activation act, const Matrix &activated,
                                const Matrix &upstream,
                                Matrix &col_sums);

/**
 * Fully connected layer: Y = act(X W + b).
 *
 * Gradients: dX = dY_pre W^T, dW = X^T dY_pre, db = colsum(dY_pre).
 */
class DenseLayer
{
  public:
    /**
     * @param in_dim input feature count
     * @param out_dim output feature count
     * @param act nonlinearity
     * @param rng weight-initialisation stream (Xavier/Glorot)
     */
    DenseLayer(std::size_t in_dim, std::size_t out_dim, Activation act,
               Rng &rng);

    /**
     * Forward pass; caches the transposed input and the output for
     * backward().
     * @param x batch-major input (batch x in_dim)
     * @param engine arithmetic to run the GEMM in
     * @return activated output (batch x out_dim), owned by the layer and
     *         valid until the next forward()
     */
    const Matrix &forward(const Matrix &x,
                          const arith::GemmEngine &engine);

    /**
     * Backward pass; accumulates weight/bias gradients internally.
     * @param d_out gradient w.r.t. this layer's output
     * @return gradient w.r.t. this layer's input
     */
    Matrix backward(const Matrix &d_out, const arith::GemmEngine &engine);

    /** SGD step with momentum; clears accumulated gradients. */
    void step(double lr, double momentum);

    std::size_t inDim() const { return weights.rows(); }
    const Matrix &weightMatrix() const { return weights; }

  private:
    Matrix weights;  // in_dim x out_dim
    Matrix bias;     // 1 x out_dim
    Matrix w_grad;
    Matrix b_grad;
    Matrix w_vel;    // momentum buffers
    Matrix b_vel;
    Matrix input_t;  // X^T of the last forward(), for the wgrad GEMM
    Matrix output;   // act(X W + b) of the last forward()
    Activation activation;
};

} // namespace nn
} // namespace equinox

#endif // EQUINOX_NN_LAYERS_HH
