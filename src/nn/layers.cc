#include "nn/layers.hh"

#include <cmath>
#include <type_traits>

#include "common/logging.hh"
#include "nn/optimizer.hh"

namespace equinox
{
namespace nn
{

namespace
{

// The scalar definitions of every elementwise pass. ReLU and its
// gradient are selects, not std::max or a branch, and nothing is
// reassociated, so the vectorised loops below return exactly these bits
// (DESIGN.md §2.11).

template <Activation A>
float
activate(float x)
{
    if constexpr (A == Activation::Relu)
        return 0.0f < x ? x : 0.0f;
    else if constexpr (A == Activation::Tanh)
        return std::tanh(x);
    else
        return x;
}

/** d/dx of act at activated value @p y, times @p upstream. */
template <Activation A>
float
activateGrad(float y, float upstream)
{
    if constexpr (A == Activation::Relu)
        return y <= 0.0f ? 0.0f : upstream;
    else if constexpr (A == Activation::Tanh)
        return upstream * (1.0f - y * y);
    else
        return upstream;
}

/** Call @p fn with @p act as a std::integral_constant. */
template <class Fn>
void
withActivation(Activation act, Fn &&fn)
{
    switch (act) {
      case Activation::None:
        return fn(std::integral_constant<Activation, Activation::None>{});
      case Activation::Relu:
        return fn(std::integral_constant<Activation, Activation::Relu>{});
      case Activation::Tanh:
        return fn(std::integral_constant<Activation, Activation::Tanh>{});
    }
}

template <Activation A>
void
activateRow(float *__restrict m, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        m[i] = activate<A>(m[i]);
}

template <Activation A>
void
gradRow(const float *__restrict y, float *__restrict upstream,
        std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        upstream[i] = activateGrad<A>(y[i], upstream[i]);
}

template <Activation A>
void
biasActivateRow(float *__restrict row, const float *__restrict bias,
                std::size_t n)
{
    for (std::size_t c = 0; c < n; ++c)
        row[c] = activate<A>(row[c] + bias[c]);
}

template <Activation A>
void
gradColumnSumRow(const float *__restrict y,
                 const float *__restrict upstream, float *__restrict out,
                 float *__restrict col_sums, std::size_t n)
{
    for (std::size_t c = 0; c < n; ++c) {
        float d = activateGrad<A>(y[c], upstream[c]);
        out[c] = d;
        col_sums[c] += d;
    }
}

void
addRow(const float *__restrict row, float *__restrict sums, std::size_t n)
{
    for (std::size_t c = 0; c < n; ++c)
        sums[c] += row[c];
}

void
checkRowVector(const Matrix &v, const Matrix &m, const char *what)
{
    EQX_ASSERT(v.rows() == 1 && v.cols() == m.cols(), what, " is ",
               v.rows(), "x", v.cols(), ", want 1x", m.cols());
}

} // namespace

void
applyActivation(Activation act, Matrix &m)
{
    withActivation(act, [&](auto a) {
        activateRow<decltype(a)::value>(m.data(), m.size());
    });
}

void
applyActivationGrad(Activation act, const Matrix &activated,
                    Matrix &upstream)
{
    EQX_ASSERT(activated.size() == upstream.size(),
               "activation gradient shape mismatch");
    withActivation(act, [&](auto a) {
        gradRow<decltype(a)::value>(activated.data(), upstream.data(),
                                    upstream.size());
    });
}

void
addBiasActivate(Activation act, const Matrix &bias, Matrix &m)
{
    checkRowVector(bias, m, "bias");
    withActivation(act, [&](auto a) {
        for (std::size_t r = 0; r < m.rows(); ++r)
            biasActivateRow<decltype(a)::value>(m.rowPtr(r), bias.data(),
                                                m.cols());
    });
}

void
addColumnSums(const Matrix &m, Matrix &col_sums)
{
    checkRowVector(col_sums, m, "column sums");
    for (std::size_t r = 0; r < m.rows(); ++r)
        addRow(m.rowPtr(r), col_sums.data(), m.cols());
}

Matrix
activationGradColumnSums(Activation act, const Matrix &activated,
                         const Matrix &upstream, Matrix &col_sums)
{
    EQX_ASSERT(activated.rows() == upstream.rows() &&
                   activated.cols() == upstream.cols(),
               "activation gradient shape mismatch");
    checkRowVector(col_sums, upstream, "column sums");
    Matrix out(upstream.rows(), upstream.cols());
    withActivation(act, [&](auto a) {
        for (std::size_t r = 0; r < upstream.rows(); ++r)
            gradColumnSumRow<decltype(a)::value>(
                activated.rowPtr(r), upstream.rowPtr(r), out.rowPtr(r),
                col_sums.data(), upstream.cols());
    });
    return out;
}

DenseLayer::DenseLayer(std::size_t in_dim, std::size_t out_dim,
                       Activation act, Rng &rng)
    : weights(in_dim, out_dim),
      bias(1, out_dim),
      w_grad(in_dim, out_dim),
      b_grad(1, out_dim),
      w_vel(in_dim, out_dim),
      b_vel(1, out_dim),
      activation(act)
{
    double sd = std::sqrt(2.0 / static_cast<double>(in_dim + out_dim));
    weights.randomize(rng, sd);
}

const Matrix &
DenseLayer::forward(const Matrix &x, const arith::GemmEngine &engine)
{
    EQX_ASSERT(x.cols() == weights.rows(), "dense layer input dim ",
               x.cols(), " != ", weights.rows());
    input_t = x.transposed();
    output = Matrix(x.rows(), weights.cols());
    engine.multiply(x, weights, output, false);
    addBiasActivate(activation, bias, output);
    return output;
}

Matrix
DenseLayer::backward(const Matrix &d_out, const arith::GemmEngine &engine)
{
    EQX_ASSERT(d_out.rows() == input_t.cols() &&
                   d_out.cols() == weights.cols(),
               "dense layer upstream gradient shape mismatch");

    // dPre = dOut * act'(Y) and db += column sums of dPre, in one pass.
    // A linear layer's dPre is dOut itself.
    Matrix activated_grad;
    if (activation == Activation::None)
        addColumnSums(d_out, b_grad);
    else
        activated_grad =
            activationGradColumnSums(activation, output, d_out, b_grad);
    const Matrix &d_pre =
        activation == Activation::None ? d_out : activated_grad;

    // dW = X^T dPre   (weight-gradient GEMM, the "wgrad" pass)
    engine.multiply(input_t, d_pre, w_grad, true);

    // dX = dPre W^T   (data-gradient GEMM, the "dgrad" pass)
    Matrix d_in(d_pre.rows(), weights.rows());
    engine.multiply(d_pre, weights.transposed(), d_in, false);
    return d_in;
}

void
DenseLayer::step(double lr, double momentum)
{
    sgdMomentumStep(weights, w_grad, w_vel, lr, momentum);
    sgdMomentumStep(bias, b_grad, b_vel, lr, momentum);
}

} // namespace nn
} // namespace equinox
