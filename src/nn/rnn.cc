#include "nn/rnn.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "nn/layers.hh"
#include "nn/optimizer.hh"

namespace equinox
{
namespace nn
{

namespace
{

/** Step @p t of the step-major input @p x: batch x in_dim. */
Matrix
sliceStep(const Matrix &x, std::size_t t, std::size_t in_dim)
{
    Matrix out(x.rows(), in_dim);
    for (std::size_t r = 0; r < x.rows(); ++r) {
        const float *src = x.rowPtr(r) + t * in_dim;
        std::copy(src, src + in_dim, out.rowPtr(r));
    }
    return out;
}

void
addInPlace(float *__restrict acc, const float *__restrict v, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        acc[i] += v[i];
}

void
scaleInPlace(float *m, float s, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        m[i] *= s;
}

} // namespace

ElmanRnn::ElmanRnn(std::size_t in_dim, std::size_t hidden,
                   std::size_t classes, Rng &rng)
    : wx(in_dim, hidden),
      wh(hidden, hidden),
      wy(hidden, classes),
      bh(1, hidden),
      by(1, classes),
      g_wx(in_dim, hidden),
      g_wh(hidden, hidden),
      g_wy(hidden, classes),
      g_bh(1, hidden),
      g_by(1, classes),
      v_wx(in_dim, hidden),
      v_wh(hidden, hidden),
      v_wy(hidden, classes),
      v_bh(1, hidden),
      v_by(1, classes)
{
    wx.randomize(rng, std::sqrt(1.0 / static_cast<double>(in_dim)));
    // Scaled orthogonal-ish recurrent init keeps gradients stable.
    wh.randomize(rng, std::sqrt(0.5 / static_cast<double>(hidden)));
    wy.randomize(rng, std::sqrt(1.0 / static_cast<double>(hidden)));
}

Matrix
ElmanRnn::forward(const Matrix &x, std::size_t steps,
                  const arith::GemmEngine &engine)
{
    const std::size_t in_dim = wx.rows();
    const std::size_t hidden = wh.rows();
    EQX_ASSERT(x.cols() == steps * in_dim,
               "sequence width ", x.cols(), " != steps*in_dim ",
               steps * in_dim);

    cached_x = x;
    cached_steps = steps;
    hidden_states.assign(steps, Matrix());

    const Matrix h0(x.rows(), hidden, 0.0f);
    for (std::size_t t = 0; t < steps; ++t) {
        Matrix pre(x.rows(), hidden);
        engine.multiply(sliceStep(x, t, in_dim), wx, pre, false);
        engine.multiply(t == 0 ? h0 : hidden_states[t - 1], wh, pre, true);
        addBiasActivate(Activation::Tanh, bh, pre);
        hidden_states[t] = std::move(pre);
    }

    // Mean-pooled readout over all hidden states.
    Matrix pooled(x.rows(), hidden, 0.0f);
    for (const auto &ht : hidden_states)
        addInPlace(pooled.data(), ht.data(), pooled.size());
    scaleInPlace(pooled.data(), 1.0f / static_cast<float>(steps),
                 pooled.size());
    pooled_t = pooled.transposed();

    Matrix logits(x.rows(), wy.cols());
    engine.multiply(pooled, wy, logits, false);
    addBiasActivate(Activation::None, by, logits);
    return logits;
}

void
ElmanRnn::backward(const Matrix &logit_grad,
                   const arith::GemmEngine &engine)
{
    EQX_ASSERT(cached_steps > 0, "backward() before forward()");
    const std::size_t in_dim = wx.rows();
    const std::size_t hidden = wh.rows();

    // Classifier gradients against the pooled state.
    engine.multiply(pooled_t, logit_grad, g_wy, true);
    addColumnSums(logit_grad, g_by);

    // Every step's hidden state receives dPool = dLogits Wy^T / T in
    // addition to the recurrent gradient flow.
    Matrix dpool(logit_grad.rows(), hidden);
    engine.multiply(logit_grad, wy.transposed(), dpool, false);
    scaleInPlace(dpool.data(), 1.0f / static_cast<float>(cached_steps),
                 dpool.size());

    const Matrix wh_t = wh.transposed();
    Matrix dh_next;  // dh of step t once t < T - 1
    for (std::size_t t = cached_steps; t-- > 0;) {
        const Matrix &dh = t + 1 == cached_steps ? dpool : dh_next;
        // dPre = dh * (1 - h^2), and dBh += column sums of dPre.
        Matrix dpre = activationGradColumnSums(
            Activation::Tanh, hidden_states[t], dh, g_bh);

        // Weight gradients: dWx += x_t^T dPre, dWh += h_{t-1}^T dPre.
        engine.multiply(sliceStep(cached_x, t, in_dim).transposed(), dpre,
                        g_wx, true);
        if (t == 0)
            break;
        engine.multiply(hidden_states[t - 1].transposed(), dpre, g_wh,
                        true);

        // dh for the previous step: recurrent flow plus its own share
        // of the pooled readout gradient.
        Matrix next(dpre.rows(), hidden);
        engine.multiply(dpre, wh_t, next, false);
        addInPlace(next.data(), dpool.data(), next.size());
        dh_next = std::move(next);
    }
}

void
ElmanRnn::step(double lr, double momentum)
{
    sgdMomentumStep(wx, g_wx, v_wx, lr, momentum);
    sgdMomentumStep(wh, g_wh, v_wh, lr, momentum);
    sgdMomentumStep(wy, g_wy, v_wy, lr, momentum);
    sgdMomentumStep(bh, g_bh, v_bh, lr, momentum);
    sgdMomentumStep(by, g_by, v_by, lr, momentum);
}

} // namespace nn
} // namespace equinox
