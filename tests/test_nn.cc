/**
 * @file
 * Unit tests for the training substrate: layers, losses, datasets, and a
 * short end-to-end training sanity run in each encoding.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "arith/gemm.hh"
#include "nn/datasets.hh"
#include "nn/layers.hh"
#include "nn/loss.hh"
#include "nn/mlp.hh"
#include "nn/trainer.hh"

namespace equinox
{
namespace nn
{
namespace
{

TEST(Activations, ReluAndTanh)
{
    Matrix m(1, 4);
    m.at(0, 0) = -2.0f;
    m.at(0, 1) = 0.0f;
    m.at(0, 2) = 3.0f;
    m.at(0, 3) = -0.5f;
    Matrix relu = m;
    applyActivation(Activation::Relu, relu);
    EXPECT_EQ(relu.at(0, 0), 0.0f);
    EXPECT_EQ(relu.at(0, 2), 3.0f);

    Matrix th = m;
    applyActivation(Activation::Tanh, th);
    EXPECT_NEAR(th.at(0, 2), std::tanh(3.0f), 1e-6);
}

// Bitwise edge cases of the vectorised activation passes. Lengths 1, 3,
// 7 and 17 are not multiples of any vector width, so every value also
// lands in a scalar tail.

std::uint32_t
bits(float f)
{
    return std::bit_cast<std::uint32_t>(f);
}

/**
 * Bitwise equality; with @p any_nan, any NaN matches any NaN (an
 * arithmetic op on two NaNs may return either payload).
 */
::testing::AssertionResult
sameBits(float got, float want, bool any_nan)
{
    if (bits(got) == bits(want) ||
        (any_nan && std::isnan(got) && std::isnan(want)))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << std::hex << "got 0x" << bits(got) << ", want 0x"
           << bits(want);
}

/** NaNs, signed zeros, infinities, denormals and ordinary values. */
const std::vector<float> kEdgeValues{
    std::numeric_limits<float>::quiet_NaN(),
    -std::numeric_limits<float>::quiet_NaN(),
    std::bit_cast<float>(0x7fc01234u),  // NaN with a payload
    0.0f,
    -0.0f,
    std::numeric_limits<float>::infinity(),
    -std::numeric_limits<float>::infinity(),
    std::numeric_limits<float>::denorm_min(),
    -std::numeric_limits<float>::denorm_min(),
    1e-39f,
    -1e-39f,
    std::numeric_limits<float>::min(),
    1.5f,
    -2.25f,
    0.75f,
    20.0f,
    -3e38f,
    0.9999f,  // near +-1, 1 - y*y rounded once (an FMA) differs
    -0.99997f,
};

const std::size_t kEdgeLengths[] = {1, 3, 7, 17};

/** rows x n of kEdgeValues, starting at @p offset and wrapping. */
Matrix
edgeMatrix(std::size_t rows, std::size_t n, std::size_t offset)
{
    Matrix m(rows, n);
    for (std::size_t i = 0; i < m.size(); ++i)
        m.data()[i] = kEdgeValues[(offset + i) % kEdgeValues.size()];
    return m;
}

// The scalar definitions the vectorised passes must reproduce.
float
reluRef(float x)
{
    return std::max(0.0f, x);
}

float
reluGradRef(float activated, float upstream)
{
    if (activated <= 0.0f)
        return 0.0f;
    return upstream;
}

float
tanhGradRef(float activated, float upstream)
{
    // volatile keeps the square rounded on its own under any -march.
    volatile float square = activated * activated;
    return upstream * (1.0f - square);
}

TEST(ActivationEdgeCases, PinnedScalarSemantics)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    Matrix m(1, 2);
    m.at(0, 0) = nan;
    m.at(0, 1) = -0.0f;
    applyActivation(Activation::Relu, m);
    EXPECT_EQ(bits(m.at(0, 0)), bits(0.0f)) << "ReLU(NaN) is +0";
    EXPECT_EQ(bits(m.at(0, 1)), bits(0.0f)) << "ReLU(-0) is +0";

    Matrix activated(1, 3);
    activated.at(0, 0) = nan;
    activated.at(0, 1) = -0.0f;
    activated.at(0, 2) = 2.0f;
    Matrix upstream(1, 3, -7.5f);
    applyActivationGrad(Activation::Relu, activated, upstream);
    EXPECT_EQ(upstream.at(0, 0), -7.5f) << "NaN keeps upstream";
    EXPECT_EQ(bits(upstream.at(0, 1)), bits(0.0f));
    EXPECT_EQ(upstream.at(0, 2), -7.5f);
}

TEST(ActivationEdgeCases, ForwardMatchesScalarDefinition)
{
    for (std::size_t n : kEdgeLengths) {
        for (std::size_t off = 0; off < kEdgeValues.size(); ++off) {
            const Matrix x = edgeMatrix(1, n, off);
            Matrix relu = x, th = x;
            applyActivation(Activation::Relu, relu);
            applyActivation(Activation::Tanh, th);
            for (std::size_t i = 0; i < n; ++i) {
                float v = x.data()[i];
                EXPECT_TRUE(sameBits(relu.data()[i], reluRef(v), false))
                    << "relu n=" << n << " i=" << i;
                EXPECT_TRUE(sameBits(th.data()[i], std::tanh(v), false))
                    << "tanh n=" << n << " i=" << i;
            }
        }
    }
}

TEST(ActivationEdgeCases, GradientMatchesScalarDefinition)
{
    for (std::size_t n : kEdgeLengths) {
        for (std::size_t off = 0; off < kEdgeValues.size(); ++off) {
            const Matrix y = edgeMatrix(1, n, off);
            const Matrix up = edgeMatrix(1, n, 5 * off + 3);
            Matrix relu = up, th = up;
            applyActivationGrad(Activation::Relu, y, relu);
            applyActivationGrad(Activation::Tanh, y, th);
            for (std::size_t i = 0; i < n; ++i) {
                float a = y.data()[i], u = up.data()[i];
                EXPECT_TRUE(
                    sameBits(relu.data()[i], reluGradRef(a, u), false))
                    << "relu n=" << n << " i=" << i;
                EXPECT_TRUE(sameBits(th.data()[i], tanhGradRef(a, u), true))
                    << "tanh n=" << n << " i=" << i;
            }
        }
    }
}

TEST(ActivationEdgeCases, FusedPassesMatchTheirUnfusedSteps)
{
    // addBiasActivate == bias add, then applyActivation;
    // activationGradColumnSums == applyActivationGrad, then row-ordered
    // column sums.
    const std::size_t rows = 3;
    for (Activation act :
         {Activation::None, Activation::Relu, Activation::Tanh}) {
        for (std::size_t n : kEdgeLengths) {
            for (std::size_t off = 0; off < kEdgeValues.size(); ++off) {
                const Matrix x = edgeMatrix(rows, n, off);
                const Matrix bias = edgeMatrix(1, n, 3 * off + 1);
                Matrix fused = x;
                addBiasActivate(act, bias, fused);
                Matrix want = x;
                for (std::size_t r = 0; r < rows; ++r)
                    for (std::size_t c = 0; c < n; ++c)
                        want.at(r, c) += bias.at(0, c);
                applyActivation(act, want);

                const Matrix up = edgeMatrix(rows, n, 7 * off + 2);
                Matrix sums = edgeMatrix(1, n, off + 4);
                Matrix want_sums = sums;
                Matrix grad = activationGradColumnSums(act, x, up, sums);
                Matrix want_grad = up;
                applyActivationGrad(act, x, want_grad);
                for (std::size_t r = 0; r < rows; ++r)
                    for (std::size_t c = 0; c < n; ++c)
                        want_sums.at(0, c) += want_grad.at(r, c);

                for (std::size_t i = 0; i < fused.size(); ++i) {
                    EXPECT_TRUE(sameBits(fused.data()[i], want.data()[i],
                                         true))
                        << "forward act=" << static_cast<int>(act)
                        << " n=" << n << " i=" << i;
                    EXPECT_TRUE(sameBits(grad.data()[i],
                                         want_grad.data()[i], true))
                        << "grad act=" << static_cast<int>(act)
                        << " n=" << n << " i=" << i;
                }
                for (std::size_t c = 0; c < n; ++c)
                    EXPECT_TRUE(sameBits(sums.at(0, c), want_sums.at(0, c),
                                         true))
                        << "column sum act=" << static_cast<int>(act)
                        << " n=" << n << " c=" << c;
            }
        }
    }
}

TEST(SoftmaxLoss, UniformLogits)
{
    Matrix logits(2, 4, 0.0f);
    auto res = softmaxCrossEntropy(logits, {0, 3});
    EXPECT_NEAR(res.mean_loss, std::log(4.0), 1e-9);
    // Gradient rows sum to zero.
    for (std::size_t r = 0; r < 2; ++r) {
        double s = 0.0;
        for (std::size_t c = 0; c < 4; ++c)
            s += res.logit_grad.at(r, c);
        EXPECT_NEAR(s, 0.0, 1e-7);
    }
}

TEST(SoftmaxLoss, ConfidentCorrectPredictionHasLowLoss)
{
    Matrix logits(1, 3, 0.0f);
    logits.at(0, 1) = 20.0f;
    auto res = softmaxCrossEntropy(logits, {1});
    EXPECT_LT(res.mean_loss, 1e-6);
    EXPECT_EQ(res.error_rate, 0.0);
}

TEST(SoftmaxLoss, ErrorRateCountsArgmaxMismatch)
{
    Matrix logits(2, 2, 0.0f);
    logits.at(0, 0) = 5.0f; // predicts 0, label 1 -> error
    logits.at(1, 1) = 5.0f; // predicts 1, label 1 -> correct
    auto res = softmaxCrossEntropy(logits, {1, 1});
    EXPECT_DOUBLE_EQ(res.error_rate, 0.5);
}

TEST(SoftmaxLoss, GradientMatchesFiniteDifference)
{
    Matrix logits(1, 3);
    logits.at(0, 0) = 0.3f;
    logits.at(0, 1) = -0.8f;
    logits.at(0, 2) = 1.1f;
    std::vector<std::uint32_t> labels{2};
    auto base = softmaxCrossEntropy(logits, labels);
    const double eps = 1e-3;
    for (std::size_t c = 0; c < 3; ++c) {
        Matrix bumped = logits;
        bumped.at(0, c) += static_cast<float>(eps);
        auto res = softmaxCrossEntropy(bumped, labels);
        double fd = (res.mean_loss - base.mean_loss) / eps;
        EXPECT_NEAR(fd, base.logit_grad.at(0, c), 1e-3) << c;
    }
}

TEST(Perplexity, ExpOfLoss)
{
    EXPECT_NEAR(perplexityFromLoss(std::log(32.0)), 32.0, 1e-9);
}

TEST(Mse, LossAndGradient)
{
    Matrix p(1, 2), t(1, 2);
    p.at(0, 0) = 1.0f;
    p.at(0, 1) = 3.0f;
    t.at(0, 0) = 0.0f;
    t.at(0, 1) = 3.0f;
    auto res = meanSquaredError(p, t);
    EXPECT_DOUBLE_EQ(res.mean_loss, 0.5);
    EXPECT_FLOAT_EQ(res.grad.at(0, 0), 1.0f);
    EXPECT_FLOAT_EQ(res.grad.at(0, 1), 0.0f);
}

TEST(DenseLayer, ForwardShapeAndBias)
{
    Rng rng(1);
    DenseLayer layer(3, 2, Activation::None, rng);
    arith::Fp32Gemm eng;
    Matrix x(4, 3, 0.0f);
    Matrix y = layer.forward(x, eng);
    EXPECT_EQ(y.rows(), 4u);
    EXPECT_EQ(y.cols(), 2u);
    // Zero input with zero bias -> zero output.
    EXPECT_EQ(y.maxAbs(), 0.0f);
}

TEST(DenseLayer, GradientMatchesFiniteDifference)
{
    // Check dL/dx through a dense+tanh layer against finite differences
    // of a scalar loss L = sum(y).
    Rng rng(9);
    DenseLayer layer(4, 3, Activation::Tanh, rng);
    arith::Fp32Gemm eng;
    Matrix x(2, 4);
    x.randomize(rng, 0.5);

    auto loss_of = [&](const Matrix &input) {
        DenseLayer copy = layer;
        Matrix y = copy.forward(input, eng);
        double s = 0.0;
        for (std::size_t i = 0; i < y.size(); ++i)
            s += y.data()[i];
        return s;
    };

    Matrix y = layer.forward(x, eng);
    Matrix ones(y.rows(), y.cols(), 1.0f);
    Matrix dx = layer.backward(ones, eng);

    const double eps = 1e-3;
    for (std::size_t r = 0; r < x.rows(); ++r) {
        for (std::size_t c = 0; c < x.cols(); ++c) {
            Matrix bumped = x;
            bumped.at(r, c) += static_cast<float>(eps);
            double fd = (loss_of(bumped) - loss_of(x)) / eps;
            EXPECT_NEAR(fd, dx.at(r, c), 5e-2) << r << "," << c;
        }
    }
}

TEST(SgdConfig, StepDecaySchedule)
{
    SgdConfig cfg;
    cfg.learning_rate = 1.0;
    cfg.decay_factor = 0.1;
    cfg.decay_epochs = {10, 20};
    EXPECT_DOUBLE_EQ(cfg.rateForEpoch(0), 1.0);
    EXPECT_DOUBLE_EQ(cfg.rateForEpoch(9), 1.0);
    EXPECT_DOUBLE_EQ(cfg.rateForEpoch(10), 0.1);
    EXPECT_NEAR(cfg.rateForEpoch(25), 0.01, 1e-12);
}

TEST(ClusterDataset, ShapesAndDeterminism)
{
    ClusterDataset a(4, 8, 256, 64, 0.4, 7);
    ClusterDataset b(4, 8, 256, 64, 0.4, 7);
    EXPECT_EQ(a.featureDim(), 8u);
    EXPECT_EQ(a.classCount(), 4u);
    EXPECT_EQ(a.trainSize(), 256u);
    EXPECT_EQ(a.validation().labels.size(), 64u);
    EXPECT_EQ(arith::maxAbsDiff(a.validation().inputs,
                                b.validation().inputs),
              0.0);
    // Labels span the class range.
    for (auto l : a.validation().labels)
        EXPECT_LT(l, 4u);
}

TEST(ClusterDataset, BatchesPartitionEpoch)
{
    ClusterDataset d(3, 6, 100, 10, 0.3, 11);
    std::size_t seen = 0;
    for (std::size_t b = 0; b < 4; ++b) {
        Batch batch = d.trainBatch(0, b, 32);
        seen += batch.labels.size();
        EXPECT_EQ(batch.inputs.rows(), batch.labels.size());
    }
    EXPECT_EQ(seen, 100u);
}

/** FNV-1a over the bit patterns of a stream of batches. */
struct BatchDigest
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    add(const Batch &b)
    {
        bytes(b.inputs.data(), b.inputs.size() * sizeof(float));
        bytes(b.labels.data(), b.labels.size() * sizeof(std::uint32_t));
    }

    void
    bytes(const void *p, std::size_t n)
    {
        const auto *c = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= c[i];
            h *= 0x100000001b3ull;
        }
    }
};

TEST(ClusterDataset, Figure2TaskIsPinned)
{
    // fig2_convergence's task (a) and perfbench hbfp_train's seed 1: the
    // train split in epoch 0's order, then the validation split.
    // Recorded before the bend loop took tanh once per feature.
    for (auto [seed, want] :
         {std::pair{std::uint64_t{1}, 0xb3873d0199690b94ull},
          std::pair{std::uint64_t{1234}, 0x68342ac3a5c86536ull}}) {
        ClusterDataset d(8, 24, 2048, 1024, 0.35, seed);
        BatchDigest digest;
        for (std::size_t b = 0; b < 32; ++b)
            digest.add(d.trainBatch(0, b, 64));
        digest.add(d.validation());
        EXPECT_EQ(digest.h, want) << "seed " << seed;
    }
}

/** Digest of three epochs of batches gathered from each epoch's order. */
std::uint64_t
epochBatchesDigest(const Dataset &d, std::size_t batch_size)
{
    const std::size_t batches =
        (d.trainSize() + batch_size - 1) / batch_size;
    BatchDigest digest;
    for (std::size_t epoch = 0; epoch < 3; ++epoch) {
        const std::vector<std::size_t> order = d.epochOrder(epoch);
        for (std::size_t b = 0; b < batches; ++b) {
            Batch batch = d.gatherBatch(order, b, batch_size);
            Batch again = d.trainBatch(epoch, b, batch_size);
            EXPECT_EQ(batch.labels, again.labels);
            EXPECT_EQ(arith::maxAbsDiff(batch.inputs, again.inputs), 0.0);
            digest.add(batch);
        }
    }
    return digest.h;
}

TEST(Dataset, EpochBatchOrderIsPinned)
{
    // Recorded when trainBatch re-shuffled the split for every batch.
    EXPECT_EQ(epochBatchesDigest(ClusterDataset(3, 6, 100, 10, 0.3, 11), 32),
              0x4d2d4aa9b4cdfbc6ull);
    EXPECT_EQ(
        epochBatchesDigest(MarkovTextDataset(8, 3, 128, 32, 1.5, 13), 24),
        0x75ca83c8b66aafa3ull);
    EXPECT_EQ(epochBatchesDigest(
                  ChainSequenceDataset(3, 8, 10, 128, 64, 2.0, 5), 20),
              0x935ad47464d94bd5ull);
}

/** FNV-1a over the bit pattern of every EpochMetrics field. */
std::uint64_t
historyDigest(const TrainHistory &history)
{
    BatchDigest digest;
    for (const EpochMetrics &m : history) {
        for (std::uint64_t word :
             {std::uint64_t{m.epoch},
              std::bit_cast<std::uint64_t>(m.train_loss),
              std::bit_cast<std::uint64_t>(m.valid_loss),
              std::bit_cast<std::uint64_t>(m.valid_error),
              std::bit_cast<std::uint64_t>(m.valid_perplexity)})
            digest.bytes(&word, sizeof word);
    }
    return digest.h;
}

// The three golden tests below pin every bit of the training step: the
// GEMMs, the activations and their gradients, the bias sums, softmax and
// the SGD-momentum update. They were recorded before the elementwise
// passes in src/nn were fused and vectorised.

TEST(TrainingGolden, ClassifierHistoriesArePinned)
{
    // perfbench hbfp_train's 24-96-48-8 MLP, on a quarter of its data
    // for two epochs.
    ClusterDataset data(8, 24, 512, 256, 0.35, 1);
    TrainConfig cfg;
    cfg.epochs = 2;
    cfg.batch_size = 64;
    cfg.hidden_dims = {96, 48};
    cfg.sgd.learning_rate = 0.04;
    cfg.sgd.decay_epochs = {1};
    cfg.init_seed = 1;
    for (auto [enc, want] :
         {std::pair{arith::Encoding::Fp32, 0xd39cb3851a053973ull},
          std::pair{arith::Encoding::Bfloat16, 0x941ce11e67794e80ull},
          std::pair{arith::Encoding::Hbfp8, 0x24c689591e1711e4ull}}) {
        auto engine = arith::makeGemmEngine(enc);
        EXPECT_EQ(historyDigest(trainClassifier(data, *engine, cfg)), want)
            << encodingName(enc);
    }
}

TEST(TrainingGolden, SequenceClassifierHistoriesArePinned)
{
    ChainSequenceDataset data(3, 8, 8, 256, 64, 2.0, 31);
    TrainConfig cfg;
    cfg.epochs = 2;
    cfg.batch_size = 32;
    cfg.hidden_dims = {16};
    cfg.sgd.learning_rate = 0.12;
    for (auto [enc, want] :
         {std::pair{arith::Encoding::Fp32, 0x1d1e017a5dacb833ull},
          std::pair{arith::Encoding::Bfloat16, 0x3cd0ece6b1828234ull},
          std::pair{arith::Encoding::Hbfp8, 0xea777b9a272ca5b5ull}}) {
        auto engine = arith::makeGemmEngine(enc);
        EXPECT_EQ(historyDigest(trainSequenceClassifier(data, *engine, cfg)),
                  want)
            << encodingName(enc);
    }
}

TEST(TrainingGolden, DenseLayerStepIsPinned)
{
    // One forward/backward/step per activation, then a second forward
    // that reads the updated bias. Each matrix's bits feed the digest.
    for (auto [act, want] :
         {std::pair{Activation::None, 0x7d0bc3d101764a37ull},
          std::pair{Activation::Relu, 0x3534b7efc040028eull},
          std::pair{Activation::Tanh, 0x40f3bd3e16adbb4cull}}) {
        Rng rng(5);
        DenseLayer layer(24, 20, act, rng);
        Matrix x(13, 24);
        x.randomize(rng, 1.0);
        Matrix d_out(13, 20);
        d_out.randomize(rng, 0.1);
        arith::Fp32Gemm eng;

        BatchDigest digest;
        auto fold = [&](const Matrix &m) {
            digest.bytes(m.data(), m.size() * sizeof(float));
        };
        fold(layer.forward(x, eng));
        fold(layer.backward(d_out, eng));
        layer.step(0.05, 0.9);
        fold(layer.weightMatrix());
        fold(layer.forward(x, eng));
        fold(layer.backward(d_out, eng));
        layer.step(0.05, 0.9);
        fold(layer.weightMatrix());
        EXPECT_EQ(digest.h, want) << static_cast<int>(act);
    }
}

TEST(MarkovTextDataset, OneHotRows)
{
    MarkovTextDataset d(8, 3, 128, 32, 1.5, 13);
    EXPECT_EQ(d.featureDim(), 24u);
    const Batch &v = d.validation();
    for (std::size_t r = 0; r < v.inputs.rows(); ++r) {
        // Each of the 3 context groups has exactly one hot unit.
        for (std::size_t g = 0; g < 3; ++g) {
            float sum = 0.0f;
            for (std::size_t c = 0; c < 8; ++c)
                sum += v.inputs.at(r, g * 8 + c);
            EXPECT_EQ(sum, 1.0f);
        }
    }
}

TEST(MarkovTextDataset, EntropyFloorPositiveAndBelowUniform)
{
    MarkovTextDataset d(16, 2, 64, 16, 2.0, 17);
    EXPECT_GT(d.sourceEntropy(), 0.0);
    EXPECT_LT(d.sourceEntropy(), std::log(16.0));
}

/** End-to-end: a few epochs of training must reduce validation loss in
 *  every encoding, and hbfp8 must track fp32 closely. */
TEST(Trainer, LearnsInAllEncodings)
{
    ClusterDataset data(4, 10, 512, 256, 0.5, 21);
    TrainConfig cfg;
    cfg.epochs = 8;
    cfg.batch_size = 32;
    cfg.hidden_dims = {32};
    cfg.sgd.learning_rate = 0.05;

    double first_losses[3], last_losses[3];
    int idx = 0;
    for (auto enc :
         {arith::Encoding::Fp32, arith::Encoding::Bfloat16,
          arith::Encoding::Hbfp8}) {
        auto engine = arith::makeGemmEngine(enc);
        auto history = trainClassifier(data, *engine, cfg);
        ASSERT_EQ(history.size(), cfg.epochs);
        first_losses[idx] = history.front().valid_loss;
        last_losses[idx] = history.back().valid_loss;
        EXPECT_LT(history.back().valid_loss, history.front().valid_loss)
            << encodingName(enc);
        EXPECT_LT(history.back().valid_error, 0.5) << encodingName(enc);
        ++idx;
    }
    // hbfp8 final loss within a modest factor of fp32's (Figure 2 claim).
    EXPECT_LT(last_losses[2], last_losses[0] * 1.5 + 0.1);
    (void)first_losses;
}

TEST(Trainer, DeterministicAcrossRuns)
{
    ClusterDataset data(3, 8, 128, 64, 0.5, 23);
    TrainConfig cfg;
    cfg.epochs = 3;
    cfg.batch_size = 32;
    cfg.hidden_dims = {16};
    arith::Fp32Gemm eng;
    auto h1 = trainClassifier(data, eng, cfg);
    auto h2 = trainClassifier(data, eng, cfg);
    for (std::size_t e = 0; e < h1.size(); ++e) {
        EXPECT_DOUBLE_EQ(h1[e].valid_loss, h2[e].valid_loss);
        EXPECT_DOUBLE_EQ(h1[e].train_loss, h2[e].train_loss);
    }
}

} // namespace
} // namespace nn
} // namespace equinox
