/**
 * @file
 * The workload compiler: lowers DNN models onto a concrete accelerator
 * configuration as tiled ISA programs (Figure 4).
 *
 * Two MMU mapping modes follow section 4: mode 1 (activations broadcast,
 * weights unicast) for the wide vector-matrix products of RNNs/MLPs, and
 * mode 2 (weights broadcast, activations unicast) for tall lowered
 * convolutions. Each dependence step's GEMMs are described as tile grids
 * (isa::GemmGrid) whose TileWork is summed in closed form; no tile
 * instruction is materialised. Training iterations are compiled as
 * forward, then data-gradient, then weight-gradient passes whose operands
 * stream through the staging buffers from DRAM (section 2.2);
 * weight-gradient accumulation is read-modify-written in the SIMD unit's
 * bfloat16.
 */

#ifndef EQUINOX_WORKLOAD_COMPILER_HH
#define EQUINOX_WORKLOAD_COMPILER_HH

#include "isa/program.hh"
#include "sim/accelerator.hh"
#include "sim/config.hh"
#include "workload/dnn_model.hh"

namespace equinox
{
namespace workload
{

/**
 * Training-lowering choices (the defaults reproduce the paper; the
 * ablation benches sweep them).
 */
struct TrainingCompileOptions
{
    /**
     * Consecutive time steps whose weight-gradient contributions
     * concatenate along the inner dimension before the DRAM
     * read-modify-write of the accumulators (dW = sum_t X_t^T d_t).
     * Larger windows cut gradient DRAM traffic and improve tile fill
     * but hold more live state.
     */
    std::size_t grad_window = 2;
    /** Bytes per value of the DRAM-resident gradient accumulators. */
    double grad_acc_bytes = 4.0; // fp32
    /** Bytes per value of activation-gradient (delta) tensors. */
    double delta_bytes = 2.0; // bfloat16 (SIMD-produced)
};

/** Lowers models for one accelerator configuration. */
class Compiler
{
  public:
    explicit Compiler(sim::AcceleratorConfig config);

    /** Compile an inference service (batch of n requests for RNNs). */
    sim::InferenceServiceDesc compileInference(const DnnModel &model)
        const;

    /** Compile one training iteration at the given minibatch size. */
    sim::TrainingServiceDesc compileTraining(
        const DnnModel &model, std::size_t batch = 128,
        const TrainingCompileOptions &topts = {}) const;

    // -- building blocks, exposed for tests ---------------------------

    /**
     * Mode-1 GEMM [rows x K] x [K x N], @p copies times: activations
     * broadcast to all m arrays; rows chunked by n, K by n*w, output
     * columns by m*n.
     */
    isa::GemmGrid gridMode1(std::size_t rows, std::size_t k,
                            std::size_t n_cols,
                            std::size_t copies = 1) const;

    /**
     * Mode-2 GEMM [rows x K] x [K x N], @p copies times: weights
     * broadcast; rows chunked by m*n, K by n*w, output columns by n.
     */
    isa::GemmGrid gridMode2(std::size_t rows, std::size_t k,
                            std::size_t n_cols,
                            std::size_t copies = 1) const;

    /** SIMD cycles to stream @p elems elementwise operands. */
    Tick simdCycles(double elems) const;

    /** Bytes per matrix value in the datapath encoding. */
    double bytesPerValue() const { return cfg.bytesPerValue(); }

    const sim::AcceleratorConfig &config() const { return cfg; }

  private:
    /**
     * One dependence step: @p grid's MMU work, then SIMD over
     * @p simd_elems operands and the array drain; @p stream and
     * @p store are its DRAM bytes in and out.
     */
    isa::StepBlock stepBlock(const isa::GemmGrid &grid, double stream,
                             double store, double simd_elems) const;

    sim::InferenceServiceDesc compileRnnInference(const DnnModel &m) const;
    sim::InferenceServiceDesc compileCnnInference(const DnnModel &m) const;
    sim::InferenceServiceDesc compileMlpInference(const DnnModel &m) const;
    sim::TrainingServiceDesc compileRnnTraining(
        const DnnModel &m, std::size_t batch,
        const TrainingCompileOptions &topts) const;
    sim::TrainingServiceDesc compileCnnTraining(
        const DnnModel &m, std::size_t batch,
        const TrainingCompileOptions &topts) const;
    sim::TrainingServiceDesc compileMlpTraining(
        const DnnModel &m, std::size_t batch,
        const TrainingCompileOptions &topts) const;

    sim::AcceleratorConfig cfg;
};

} // namespace workload
} // namespace equinox

#endif // EQUINOX_WORKLOAD_COMPILER_HH
