/**
 * @file
 * A recurrent network trained with backpropagation through time, with
 * every matrix product routed through an arith::GemmEngine.
 *
 * Equinox's training workload is an LSTM; this Elman cell exercises the
 * same structure the datapath sees -- a recurrent weight GEMM per step
 * in the forward pass, transposed-weight GEMMs in the data-gradient
 * pass, and per-step weight-gradient GEMMs accumulated across time --
 * so the Figure 2 comparison also covers recurrent training, not just
 * feed-forward nets.
 */

#ifndef EQUINOX_NN_RNN_HH
#define EQUINOX_NN_RNN_HH

#include <cstdint>
#include <vector>

#include "arith/gemm.hh"
#include "arith/tensor.hh"
#include "common/random.hh"

namespace equinox
{
namespace nn
{

using arith::Matrix;

/**
 * Elman recurrent classifier with mean-pooled readout:
 *   h_t = tanh(x_t Wx + h_{t-1} Wh + b),
 *   logits = mean_t(h_t) Wy + by.
 */
class ElmanRnn
{
  public:
    /**
     * @param in_dim per-step input width
     * @param hidden recurrent state width
     * @param classes output classes
     * @param rng weight-initialisation stream
     */
    ElmanRnn(std::size_t in_dim, std::size_t hidden, std::size_t classes,
             Rng &rng);

    /**
     * Forward pass over a batch of sequences.
     * @param x batch x (steps * in_dim), step-major
     * @param steps sequence length
     * @return logits (batch x classes); state cached for backward()
     */
    Matrix forward(const Matrix &x, std::size_t steps,
                   const arith::GemmEngine &engine);

    /** BPTT from logit gradients; accumulates weight gradients. */
    void backward(const Matrix &logit_grad,
                  const arith::GemmEngine &engine);

    /** SGD-with-momentum step; clears gradients. */
    void step(double lr, double momentum);

    std::size_t inDim() const { return wx.rows(); }
    std::size_t hiddenDim() const { return wh.rows(); }
    std::size_t classCount() const { return wy.cols(); }

  private:
    Matrix wx;  // in_dim x hidden
    Matrix wh;  // hidden x hidden
    Matrix wy;  // hidden x classes
    Matrix bh;  // 1 x hidden
    Matrix by;  // 1 x classes

    Matrix g_wx, g_wh, g_wy, g_bh, g_by;
    Matrix v_wx, v_wh, v_wy, v_bh, v_by;

    // caches for BPTT
    Matrix cached_x;
    Matrix pooled_t;  // mean-pooled state, transposed for the Wy GEMM
    std::size_t cached_steps = 0;
    std::vector<Matrix> hidden_states; // h_1 .. h_T (batch x hidden)
};

} // namespace nn
} // namespace equinox

#endif // EQUINOX_NN_RNN_HH
