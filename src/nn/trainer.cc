#include "nn/trainer.hh"

#include "common/logging.hh"
#include "nn/loss.hh"
#include "nn/rnn.hh"

namespace equinox
{
namespace nn
{

TrainHistory
trainClassifier(const Dataset &data, const arith::GemmEngine &engine,
                const TrainConfig &config)
{
    Rng init_rng(config.init_seed);
    std::vector<std::size_t> dims;
    dims.push_back(data.featureDim());
    for (std::size_t h : config.hidden_dims)
        dims.push_back(h);
    dims.push_back(data.classCount());

    Mlp net(dims, config.hidden_act, engine, init_rng);

    const std::size_t batches =
        (data.trainSize() + config.batch_size - 1) / config.batch_size;
    EQX_ASSERT(batches > 0, "dataset has no training batches");

    TrainHistory history;
    history.reserve(config.epochs);
    for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
        double lr = config.sgd.rateForEpoch(epoch);
        double loss_sum = 0.0;
        const std::vector<std::size_t> order = data.epochOrder(epoch);
        for (std::size_t b = 0; b < batches; ++b) {
            Batch batch = data.gatherBatch(order, b, config.batch_size);
            Matrix logits = net.forward(batch.inputs);
            auto loss = softmaxCrossEntropy(logits, batch.labels);
            loss_sum += loss.mean_loss;
            net.backward(loss.logit_grad);
            net.step(lr, config.sgd.momentum);
        }

        const Batch &val = data.validation();
        Matrix val_logits = net.forward(val.inputs);
        auto val_loss = softmaxCrossEntropy(val_logits, val.labels);

        EpochMetrics m;
        m.epoch = epoch;
        m.train_loss = loss_sum / static_cast<double>(batches);
        m.valid_loss = val_loss.mean_loss;
        m.valid_error = val_loss.error_rate;
        m.valid_perplexity = perplexityFromLoss(val_loss.mean_loss);
        history.push_back(m);
    }
    return history;
}

TrainHistory
trainSequenceClassifier(const ChainSequenceDataset &data,
                        const arith::GemmEngine &engine,
                        const TrainConfig &config)
{
    EQX_ASSERT(!config.hidden_dims.empty(),
               "sequence classifier needs a hidden width");
    Rng init_rng(config.init_seed);
    ElmanRnn net(data.vocab(), config.hidden_dims.front(),
                 data.classCount(), init_rng);

    const std::size_t batches =
        (data.trainSize() + config.batch_size - 1) / config.batch_size;
    EQX_ASSERT(batches > 0, "dataset has no training batches");

    TrainHistory history;
    history.reserve(config.epochs);
    for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
        double lr = config.sgd.rateForEpoch(epoch);
        double loss_sum = 0.0;
        const std::vector<std::size_t> order = data.epochOrder(epoch);
        for (std::size_t b = 0; b < batches; ++b) {
            Batch batch = data.gatherBatch(order, b, config.batch_size);
            Matrix logits = net.forward(batch.inputs, data.steps(),
                                        engine);
            auto loss = softmaxCrossEntropy(logits, batch.labels);
            loss_sum += loss.mean_loss;
            net.backward(loss.logit_grad, engine);
            net.step(lr, config.sgd.momentum);
        }

        const Batch &val = data.validation();
        Matrix val_logits = net.forward(val.inputs, data.steps(),
                                        engine);
        auto val_loss = softmaxCrossEntropy(val_logits, val.labels);

        EpochMetrics m;
        m.epoch = epoch;
        m.train_loss = loss_sum / static_cast<double>(batches);
        m.valid_loss = val_loss.mean_loss;
        m.valid_error = val_loss.error_rate;
        m.valid_perplexity = perplexityFromLoss(val_loss.mean_loss);
        history.push_back(m);
    }
    return history;
}

} // namespace nn
} // namespace equinox
