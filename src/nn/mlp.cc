#include "nn/mlp.hh"

#include "common/logging.hh"

namespace equinox
{
namespace nn
{

Mlp::Mlp(const std::vector<std::size_t> &dims, Activation hidden_act,
         const arith::GemmEngine &engine, Rng &rng)
    : engine_(engine)
{
    EQX_ASSERT(dims.size() >= 2, "MLP needs at least input/output dims");
    layers.reserve(dims.size() - 1);
    for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
        bool last = (i + 2 == dims.size());
        layers.emplace_back(dims[i], dims[i + 1],
                            last ? Activation::None : hidden_act, rng);
    }
}

Matrix
Mlp::forward(const Matrix &x)
{
    // Each layer reads its predecessor's cached output in place; only
    // the logits are copied out.
    const Matrix *cur = &x;
    for (auto &layer : layers)
        cur = &layer.forward(*cur, engine_);
    return *cur;
}

void
Mlp::backward(const Matrix &logit_grad)
{
    Matrix grad = layers.back().backward(logit_grad, engine_);
    for (auto it = layers.rbegin() + 1; it != layers.rend(); ++it)
        grad = it->backward(grad, engine_);
}

void
Mlp::step(double lr, double momentum)
{
    for (auto &layer : layers)
        layer.step(lr, momentum);
}

} // namespace nn
} // namespace equinox
