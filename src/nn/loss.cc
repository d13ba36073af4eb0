#include "nn/loss.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace equinox
{
namespace nn
{

SoftmaxLossResult
softmaxCrossEntropy(const Matrix &logits,
                    const std::vector<std::uint32_t> &labels)
{
    EQX_ASSERT(logits.rows() == labels.size(),
               "label count ", labels.size(), " != batch ", logits.rows());
    const std::size_t batch = logits.rows();
    const std::size_t classes = logits.cols();
    EQX_ASSERT(batch > 0 && classes > 0, "empty softmax batch");

    SoftmaxLossResult res;
    res.logit_grad = Matrix(batch, classes);

    const double inv_batch = 1.0 / static_cast<double>(batch);
    std::vector<double> exps(classes);  // exp(logit - max) of one row
    double loss_sum = 0.0;
    std::size_t errors = 0;
    for (std::size_t r = 0; r < batch; ++r) {
        const std::uint32_t label = labels[r];
        EQX_ASSERT(label < classes, "label out of range: ", label);
        const float *row = logits.rowPtr(r);
        float *grad = res.logit_grad.rowPtr(r);

        // Stable softmax.
        float mx = row[0];
        std::size_t argmax = 0;
        for (std::size_t c = 1; c < classes; ++c) {
            if (row[c] > mx) {
                mx = row[c];
                argmax = c;
            }
        }
        double denom = 0.0;
        for (std::size_t c = 0; c < classes; ++c) {
            exps[c] = std::exp(static_cast<double>(row[c] - mx));
            denom += exps[c];
        }

        double log_denom = std::log(denom);
        double log_p_label =
            static_cast<double>(row[label] - mx) - log_denom;
        loss_sum -= log_p_label;
        if (argmax != label)
            ++errors;

        for (std::size_t c = 0; c < classes; ++c) {
            double p = exps[c] / denom;
            double t = (c == label) ? 1.0 : 0.0;
            grad[c] = static_cast<float>((p - t) * inv_batch);
        }
    }

    res.mean_loss = loss_sum / static_cast<double>(batch);
    res.error_rate = static_cast<double>(errors) /
                     static_cast<double>(batch);
    return res;
}

double
perplexityFromLoss(double mean_loss)
{
    return std::exp(mean_loss);
}

MseResult
meanSquaredError(const Matrix &predictions, const Matrix &targets)
{
    EQX_ASSERT(predictions.rows() == targets.rows() &&
                   predictions.cols() == targets.cols(),
               "MSE shape mismatch");
    MseResult res;
    res.grad = Matrix(predictions.rows(), predictions.cols());
    double inv_batch = 1.0 / static_cast<double>(predictions.rows());
    double sum = 0.0;
    for (std::size_t i = 0; i < predictions.size(); ++i) {
        double d = static_cast<double>(predictions.data()[i]) -
                   static_cast<double>(targets.data()[i]);
        sum += 0.5 * d * d;
        res.grad.data()[i] = static_cast<float>(d * inv_batch);
    }
    res.mean_loss = sum * inv_batch;
    return res;
}

} // namespace nn
} // namespace equinox
