/**
 * @file
 * Synthetic datasets for the Figure 2 convergence reproduction.
 *
 * The paper trains ResNet50/ImageNet and BERT/Wikipedia; neither dataset is
 * available offline, so we substitute two synthetic tasks that exercise the
 * same comparison (does hbfp8 track fp32 convergence?) on the identical
 * arithmetic code path:
 *
 *  - ClusterDataset: an image-like classification task -- overlapping
 *    anisotropic Gaussian clusters pushed through a fixed random nonlinear
 *    feature map, so validation error decays gradually over epochs rather
 *    than snapping to zero.
 *  - MarkovTextDataset: a language-like task -- next-token prediction on
 *    sequences from a random first-order Markov chain, evaluated in
 *    perplexity, with a learnable structure (the transition matrix) and an
 *    irreducible entropy floor.
 */

#ifndef EQUINOX_NN_DATASETS_HH
#define EQUINOX_NN_DATASETS_HH

#include <cstdint>
#include <vector>

#include "arith/tensor.hh"
#include "common/random.hh"

namespace equinox
{
namespace nn
{

using arith::Matrix;

/** A labelled batch. */
struct Batch
{
    Matrix inputs;                      // batch x features
    std::vector<std::uint32_t> labels;  // batch
};

/** Common dataset interface: deterministic train/validation splits. */
class Dataset
{
  public:
    virtual ~Dataset() = default;

    virtual std::size_t featureDim() const = 0;
    virtual std::size_t classCount() const = 0;

    std::size_t trainSize() const { return train.labels.size(); }

    /**
     * The fixed shuffle of epoch @p epoch: the order in which the epoch
     * visits the training examples, batch after batch. A training loop
     * computes it once per epoch and gathers every batch from it.
     */
    std::vector<std::size_t> epochOrder(std::size_t epoch) const;

    /** Minibatch @p index of an epoch visited in @p order (epochOrder()). */
    Batch gatherBatch(const std::vector<std::size_t> &order,
                      std::size_t index, std::size_t batch_size) const;

    /** The i-th minibatch of the epoch: gatherBatch(epochOrder(epoch), ..). */
    Batch trainBatch(std::size_t epoch, std::size_t index,
                     std::size_t batch_size) const;

    /** The whole validation split. */
    const Batch &validation() const { return valid; }

  protected:
    /** @param shuffle_seed seeds every epoch's shuffle */
    explicit Dataset(std::uint64_t shuffle_seed)
        : shuffle_seed_(shuffle_seed)
    {
    }

    Batch train;
    Batch valid;

  private:
    std::uint64_t shuffle_seed_;
};

/** Nonlinearly separable Gaussian-mixture classification. */
class ClusterDataset : public Dataset
{
  public:
    /**
     * @param classes number of classes
     * @param dim observed feature dimensionality
     * @param train_n training examples
     * @param valid_n validation examples
     * @param noise cluster noise scale (controls task difficulty)
     * @param seed deterministic generation seed
     */
    ClusterDataset(std::size_t classes, std::size_t dim,
                   std::size_t train_n, std::size_t valid_n,
                   double noise, std::uint64_t seed);

    std::size_t featureDim() const override { return dim_; }
    std::size_t classCount() const override { return classes_; }

  private:
    std::size_t classes_;
    std::size_t dim_;
};

/** Next-token prediction over a random Markov chain. */
class MarkovTextDataset : public Dataset
{
  public:
    /**
     * @param vocab vocabulary size (= class count)
     * @param context tokens of left context, one-hot concatenated
     * @param train_n training positions
     * @param valid_n validation positions
     * @param concentration Dirichlet-ish sharpness of transition rows;
     *        larger means more predictable text (lower entropy floor)
     * @param seed deterministic generation seed
     */
    MarkovTextDataset(std::size_t vocab, std::size_t context,
                      std::size_t train_n, std::size_t valid_n,
                      double concentration, std::uint64_t seed);

    std::size_t featureDim() const override { return vocab_ * context_; }
    std::size_t classCount() const override { return vocab_; }

    /** Entropy floor of the generating chain (nats/token). */
    double sourceEntropy() const { return entropy; }

  private:
    std::size_t vocab_;
    std::size_t context_;
    double entropy = 0.0;
};

/**
 * Sequence classification: which of K random Markov chains generated
 * this token sequence? Inputs are step-major one-hot sequences, the
 * task for the recurrent (BPTT) convergence experiments.
 */
class ChainSequenceDataset : public Dataset
{
  public:
    /**
     * @param chains number of generator chains (= classes)
     * @param vocab token vocabulary (per-step one-hot width)
     * @param steps sequence length
     * @param train_n training sequences
     * @param valid_n validation sequences
     * @param concentration transition-row sharpness (separability)
     * @param seed deterministic generation seed
     */
    ChainSequenceDataset(std::size_t chains, std::size_t vocab,
                         std::size_t steps, std::size_t train_n,
                         std::size_t valid_n, double concentration,
                         std::uint64_t seed);

    std::size_t featureDim() const override { return vocab_ * steps_; }
    std::size_t classCount() const override { return chains_; }

    std::size_t vocab() const { return vocab_; }
    std::size_t steps() const { return steps_; }

  private:
    std::size_t chains_;
    std::size_t vocab_;
    std::size_t steps_;
};

} // namespace nn
} // namespace equinox

#endif // EQUINOX_NN_DATASETS_HH
