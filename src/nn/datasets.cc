#include "nn/datasets.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hh"

namespace equinox
{
namespace nn
{

std::vector<std::size_t>
Dataset::epochOrder(std::size_t epoch) const
{
    const std::size_t n = trainSize();
    std::vector<std::size_t> perm(n);
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    Rng rng(shuffle_seed_ ^ (0x9E3779B97F4A7C15ull * (epoch + 1)));
    for (std::size_t i = n; i > 1; --i) {
        std::size_t j = rng.uniformInt(0, i - 1);
        std::swap(perm[i - 1], perm[j]);
    }
    return perm;
}

Batch
Dataset::gatherBatch(const std::vector<std::size_t> &order,
                     std::size_t index, std::size_t batch_size) const
{
    const std::size_t n = trainSize();
    EQX_ASSERT(order.size() == n, "epoch order covers ", order.size(),
               " of ", n, " examples");
    std::size_t lo = index * batch_size;
    EQX_ASSERT(lo < n, "batch index ", index, " beyond dataset");
    std::size_t hi = std::min(lo + batch_size, n);

    Batch out;
    out.inputs = Matrix(hi - lo, train.inputs.cols());
    out.labels.resize(hi - lo);
    const std::size_t cols = train.inputs.cols();
    for (std::size_t i = lo; i < hi; ++i) {
        std::size_t src = order[i];
        EQX_ASSERT(src < n, "epoch order names example ", src, " of ", n);
        const float *row = train.inputs.rowPtr(src);
        std::copy(row, row + cols, out.inputs.rowPtr(i - lo));
        out.labels[i - lo] = train.labels[src];
    }
    return out;
}

Batch
Dataset::trainBatch(std::size_t epoch, std::size_t index,
                    std::size_t batch_size) const
{
    return gatherBatch(epochOrder(epoch), index, batch_size);
}

ClusterDataset::ClusterDataset(std::size_t classes, std::size_t dim,
                               std::size_t train_n, std::size_t valid_n,
                               double noise, std::uint64_t seed)
    : Dataset(0xC105ul), classes_(classes), dim_(dim)
{
    EQX_ASSERT(classes >= 2 && dim >= 2, "degenerate cluster dataset");
    Rng rng(seed);

    // Latent class centroids in a low-dimensional space, mapped up through
    // a fixed random nonlinear feature map so classes are not linearly
    // separable in the observed space.
    const std::size_t latent = 4;
    Matrix centroids(classes, latent);
    centroids.randomize(rng, 1.5);
    Matrix projection(latent, dim);
    projection.randomize(rng, 1.0);
    Matrix bend(dim, dim);
    bend.randomize(rng, 0.6 / std::sqrt(static_cast<double>(dim)));

    std::vector<double> z(latent), x(dim), th(dim);
    auto sample_split = [&](std::size_t n, Batch &out) {
        out.inputs = Matrix(n, dim);
        out.labels.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            auto cls = static_cast<std::uint32_t>(
                rng.uniformInt(0, classes - 1));
            out.labels[i] = cls;
            for (std::size_t l = 0; l < latent; ++l)
                z[l] = centroids.at(cls, l) + rng.normal(0.0, noise);
            // Linear projection ...
            std::fill(x.begin(), x.end(), 0.0);
            for (std::size_t d = 0; d < dim; ++d)
                for (std::size_t l = 0; l < latent; ++l)
                    x[d] += z[l] * projection.at(l, d);
            // ... then a fixed quadratic bend and observation noise.
            for (std::size_t e = 0; e < dim; ++e)
                th[e] = std::tanh(x[e]);
            for (std::size_t d = 0; d < dim; ++d) {
                double bent = x[d];
                for (std::size_t e = 0; e < dim; ++e)
                    bent += bend.at(d, e) * x[e] * th[e];
                out.inputs.at(i, d) = static_cast<float>(
                    bent + rng.normal(0.0, noise * 0.5));
            }
        }
    };

    sample_split(train_n, train);
    sample_split(valid_n, valid);
}

MarkovTextDataset::MarkovTextDataset(std::size_t vocab, std::size_t context,
                                     std::size_t train_n,
                                     std::size_t valid_n,
                                     double concentration,
                                     std::uint64_t seed)
    : Dataset(0x7E47ul), vocab_(vocab), context_(context)
{
    EQX_ASSERT(vocab >= 2 && context >= 1, "degenerate text dataset");
    Rng rng(seed);

    // Random row-stochastic transition matrix with tunable sharpness.
    std::vector<std::vector<double>> transition(vocab,
                                                std::vector<double>(vocab));
    for (std::size_t r = 0; r < vocab; ++r) {
        double sum = 0.0;
        for (std::size_t c = 0; c < vocab; ++c) {
            double g = -std::log(1.0 - rng.uniform());
            double v = std::pow(g, concentration);
            transition[r][c] = v;
            sum += v;
        }
        for (std::size_t c = 0; c < vocab; ++c)
            transition[r][c] /= sum;
    }

    // Conditional entropy of the chain (the perplexity floor), weighted by
    // an empirical stationary estimate from a long rollout.
    std::vector<double> visits(vocab, 0.0);
    {
        std::size_t state = 0;
        for (std::size_t t = 0; t < 200000; ++t) {
            visits[state] += 1.0;
            double u = rng.uniform(), acc = 0.0;
            std::size_t next = vocab - 1;
            for (std::size_t c = 0; c < vocab; ++c) {
                acc += transition[state][c];
                if (u < acc) {
                    next = c;
                    break;
                }
            }
            state = next;
        }
    }
    double total_visits = std::accumulate(visits.begin(), visits.end(), 0.0);
    entropy = 0.0;
    for (std::size_t r = 0; r < vocab; ++r) {
        double pi = visits[r] / total_visits;
        for (std::size_t c = 0; c < vocab; ++c) {
            double p = transition[r][c];
            if (p > 0.0)
                entropy -= pi * p * std::log(p);
        }
    }

    auto sample_split = [&](std::size_t n, Batch &out) {
        out.inputs = Matrix(n, vocab * context);
        out.labels.resize(n);
        std::vector<std::size_t> window(context, 0);
        std::size_t state = rng.uniformInt(0, vocab - 1);
        for (std::size_t i = 0; i < n; ++i) {
            // Advance the chain `context` steps recording the window, then
            // one more step for the label.
            for (std::size_t w = 0; w < context; ++w) {
                window[w] = state;
                double u = rng.uniform(), acc = 0.0;
                std::size_t next = vocab - 1;
                for (std::size_t c = 0; c < vocab; ++c) {
                    acc += transition[state][c];
                    if (u < acc) {
                        next = c;
                        break;
                    }
                }
                state = next;
            }
            for (std::size_t w = 0; w < context; ++w)
                out.inputs.at(i, w * vocab + window[w]) = 1.0f;
            out.labels[i] = static_cast<std::uint32_t>(state);
        }
    };

    sample_split(train_n, train);
    sample_split(valid_n, valid);
}

ChainSequenceDataset::ChainSequenceDataset(std::size_t chains,
                                           std::size_t vocab,
                                           std::size_t steps,
                                           std::size_t train_n,
                                           std::size_t valid_n,
                                           double concentration,
                                           std::uint64_t seed)
    : Dataset(0x5EC5ul), chains_(chains), vocab_(vocab), steps_(steps)
{
    EQX_ASSERT(chains >= 2 && vocab >= 2 && steps >= 2,
               "degenerate sequence dataset");
    Rng rng(seed);

    // One random row-stochastic transition matrix per class.
    std::vector<std::vector<std::vector<double>>> transition(
        chains,
        std::vector<std::vector<double>>(vocab,
                                         std::vector<double>(vocab)));
    for (std::size_t k = 0; k < chains; ++k) {
        for (std::size_t r = 0; r < vocab; ++r) {
            double sum = 0.0;
            for (std::size_t c = 0; c < vocab; ++c) {
                double g = -std::log(1.0 - rng.uniform());
                double v = std::pow(g, concentration);
                transition[k][r][c] = v;
                sum += v;
            }
            for (std::size_t c = 0; c < vocab; ++c)
                transition[k][r][c] /= sum;
        }
    }

    auto sample_split = [&](std::size_t n, Batch &out) {
        out.inputs = Matrix(n, vocab * steps);
        out.labels.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            auto k = static_cast<std::uint32_t>(
                rng.uniformInt(0, chains - 1));
            out.labels[i] = k;
            std::size_t state = rng.uniformInt(0, vocab - 1);
            for (std::size_t t = 0; t < steps; ++t) {
                out.inputs.at(i, t * vocab + state) = 1.0f;
                double u = rng.uniform(), acc = 0.0;
                std::size_t next = vocab - 1;
                for (std::size_t c = 0; c < vocab; ++c) {
                    acc += transition[k][state][c];
                    if (u < acc) {
                        next = c;
                        break;
                    }
                }
                state = next;
            }
        }
    };

    sample_split(train_n, train);
    sample_split(valid_n, valid);
}

} // namespace nn
} // namespace equinox
