#include "workload/compiler.hh"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "common/logging.hh"
#include "common/units.hh"

namespace equinox
{
namespace workload
{

namespace
{

/**
 * Append @p blocks to @p prog @p times times: an RNN time step is the
 * same sequence of gate-group blocks at every step (the GEMM shapes
 * depend only on the batch and hidden size).
 */
void
appendPerTimeStep(isa::CompiledProgram &prog,
                  const std::vector<isa::StepBlock> &blocks,
                  std::size_t times)
{
    prog.steps.reserve(prog.steps.size() + blocks.size() * times);
    for (std::size_t t = 0; t < times; ++t)
        prog.steps.insert(prog.steps.end(), blocks.begin(), blocks.end());
}

} // namespace

Compiler::Compiler(sim::AcceleratorConfig config) : cfg(std::move(config))
{
    EQX_ASSERT(cfg.n > 0 && cfg.m > 0 && cfg.w > 0, "degenerate MMU");
}

Tick
Compiler::simdCycles(double elems) const
{
    return static_cast<Tick>(
        std::ceil(elems / static_cast<double>(cfg.simd_lanes)));
}

isa::GemmGrid
Compiler::gridMode1(std::size_t rows, std::size_t k, std::size_t n_cols,
                    std::size_t copies) const
{
    EQX_ASSERT(rows > 0 && k > 0 && n_cols > 0, "degenerate GEMM");
    return {.rows = rows, .k = k, .cols = n_cols, .row_slots = cfg.n,
            .k_slots = cfg.tileK(), .col_slots = cfg.tileCols(),
            .copies = copies};
}

isa::GemmGrid
Compiler::gridMode2(std::size_t rows, std::size_t k, std::size_t n_cols,
                    std::size_t copies) const
{
    EQX_ASSERT(rows > 0 && k > 0 && n_cols > 0, "degenerate GEMM");
    return {.rows = rows, .k = k, .cols = n_cols,
            .row_slots = cfg.tileRowsMode2(), .k_slots = cfg.tileK(),
            .col_slots = cfg.n, .copies = copies};
}

isa::StepBlock
Compiler::stepBlock(const isa::GemmGrid &grid, double stream, double store,
                    double simd_elems) const
{
    isa::StepBlock sb;
    sb.mmu = isa::makeTileWork(std::span(&grid, 1), cfg.macsPerCycle(),
                               static_cast<ByteCount>(stream));
    sb.store_bytes = static_cast<ByteCount>(store);
    sb.simd_cycles = simdCycles(simd_elems);
    sb.drain_cycles = cfg.drainCycles();
    return sb;
}

// ---------------------------------------------------------------------
// Inference
// ---------------------------------------------------------------------

sim::InferenceServiceDesc
Compiler::compileInference(const DnnModel &model) const
{
    switch (model.kind) {
      case DnnModel::Kind::Rnn: return compileRnnInference(model);
      case DnnModel::Kind::Cnn: return compileCnnInference(model);
      case DnnModel::Kind::Mlp: return compileMlpInference(model);
      default: EQX_FATAL("unknown model kind");
    }
}

sim::InferenceServiceDesc
Compiler::compileMlpInference(const DnnModel &model) const
{
    const auto &mlp = model.mlp;
    EQX_ASSERT(mlp.dims.size() >= 2, "MLP needs at least two dims");
    const double bpv = bytesPerValue();

    sim::InferenceServiceDesc desc;
    desc.model_name = model.name;
    desc.program.name = model.name + "-inference";
    desc.program.batch_rows = cfg.n;
    desc.program.scale_rows_by_batch = true;

    // One dependence step per layer (mode 1: wide vector-matrix).
    for (std::size_t i = 0; i + 1 < mlp.dims.size(); ++i) {
        desc.program.steps.push_back(stepBlock(
            gridMode1(cfg.n, mlp.dims[i], mlp.dims[i + 1]), 0.0, 0.0,
            static_cast<double>(cfg.n) *
                static_cast<double>(mlp.dims[i + 1]) * mlp.simd_passes));
    }

    desc.weight_footprint = static_cast<ByteCount>(
        static_cast<double>(model.paramCount()) * bpv);
    desc.act_footprint = static_cast<ByteCount>(
        2.0 * static_cast<double>(cfg.n) *
        static_cast<double>(*std::max_element(mlp.dims.begin(),
                                              mlp.dims.end())) * bpv);
    desc.input_bytes_per_request = static_cast<ByteCount>(
        static_cast<double>(mlp.dims.front()) * bpv);
    desc.output_bytes_per_request = static_cast<ByteCount>(
        static_cast<double>(mlp.dims.back()) * bpv);
    desc.service_time_s =
        units::cyclesToSeconds(desc.program.serviceCycles(),
                               cfg.frequency_hz);
    return desc;
}

sim::InferenceServiceDesc
Compiler::compileRnnInference(const DnnModel &model) const
{
    const auto &rnn = model.rnn;
    const std::size_t h = rnn.hidden;
    const double bpv = bytesPerValue();
    const auto groups = static_cast<double>(rnn.gate_groups.size());

    sim::InferenceServiceDesc desc;
    desc.model_name = model.name;
    desc.program.name = model.name + "-inference";
    desc.program.batch_rows = cfg.n;
    desc.program.scale_rows_by_batch = true;

    // One dependence step per gate group: the group's gates are
    // independent GEMMs [n x h] x [h x h] that pipeline back to back.
    std::vector<isa::StepBlock> step_blocks;
    for (unsigned gates : rnn.gate_groups) {
        step_blocks.push_back(stepBlock(
            gridMode1(cfg.n, h, h, gates), 0.0, 0.0,
            static_cast<double>(cfg.n) * static_cast<double>(h) *
                rnn.simd_passes / groups));
    }
    appendPerTimeStep(desc.program, step_blocks, rnn.steps);

    desc.weight_footprint = static_cast<ByteCount>(
        static_cast<double>(model.paramCount()) * bpv);
    desc.act_footprint = static_cast<ByteCount>(
        6.0 * static_cast<double>(cfg.n) * static_cast<double>(h) * bpv);
    desc.input_bytes_per_request = 4 * rnn.steps; // token ids
    desc.output_bytes_per_request = static_cast<ByteCount>(
        static_cast<double>(h) * bpv);
    desc.service_time_s =
        units::cyclesToSeconds(desc.program.serviceCycles(),
                               cfg.frequency_hz);
    return desc;
}

sim::InferenceServiceDesc
Compiler::compileCnnInference(const DnnModel &model) const
{
    const auto &cnn = model.cnn;
    const double bpv = bytesPerValue();
    const std::size_t images = cnn.batch_images;

    sim::InferenceServiceDesc desc;
    desc.model_name = model.name;
    desc.program.name = model.name + "-inference";
    desc.program.batch_rows = static_cast<std::uint32_t>(images);
    desc.program.scale_rows_by_batch = true;

    for (const auto &layer : cnn.layers) {
        // The im2col unit lowers one image at a time, so output rows do
        // not batch across images; deep layers with few output pixels
        // under-fill the tall mode-2 row dimension (the Table 2 effect).
        desc.program.steps.push_back(stepBlock(
            gridMode2(layer.rowsPerImage(), layer.gemmK(), layer.c_out,
                      images),
            0.0, 0.0,
            static_cast<double>(layer.rowsPerImage() * images) *
                static_cast<double>(layer.c_out) * cnn.simd_passes));
    }
    // Classifier GEMM (mode 1: small batch of pooled features).
    desc.program.steps.push_back(stepBlock(
        gridMode1(images, cnn.classifier_in, cnn.classifier_out), 0.0,
        0.0, static_cast<double>(images * cnn.classifier_out)));

    desc.weight_footprint = static_cast<ByteCount>(
        static_cast<double>(model.paramCount()) * bpv);
    // Largest live activation: conv1 output (112^2 x 64) per image.
    desc.act_footprint = static_cast<ByteCount>(
        static_cast<double>(images) * 112 * 112 * 64 * bpv);
    desc.input_bytes_per_request = cnn.input_bytes;
    desc.output_bytes_per_request = cnn.classifier_out * 2;
    desc.service_time_s =
        units::cyclesToSeconds(desc.program.serviceCycles(),
                               cfg.frequency_hz);
    return desc;
}

// ---------------------------------------------------------------------
// Training
// ---------------------------------------------------------------------

sim::TrainingServiceDesc
Compiler::compileTraining(const DnnModel &model, std::size_t batch,
                          const TrainingCompileOptions &topts) const
{
    EQX_ASSERT(topts.grad_window >= 1, "gradient window must be >= 1");
    switch (model.kind) {
      case DnnModel::Kind::Rnn:
        return compileRnnTraining(model, batch, topts);
      case DnnModel::Kind::Cnn:
        return compileCnnTraining(model, batch, topts);
      case DnnModel::Kind::Mlp:
        return compileMlpTraining(model, batch, topts);
      default:
        EQX_FATAL("unknown model kind");
    }
}

sim::TrainingServiceDesc
Compiler::compileMlpTraining(const DnnModel &model, std::size_t batch,
                             const TrainingCompileOptions &topts) const
{
    const auto &mlp = model.mlp;
    EQX_ASSERT(mlp.dims.size() >= 2, "MLP needs at least two dims");
    const double bpv = bytesPerValue();
    const double gbv = topts.delta_bytes;
    const double acc = topts.grad_acc_bytes;
    const double b = static_cast<double>(batch);

    sim::TrainingServiceDesc desc;
    desc.model_name = model.name;
    desc.iteration.name = model.name + "-train-iteration";
    desc.iteration.batch_rows = static_cast<std::uint32_t>(batch);
    desc.iteration.scale_rows_by_batch = false;

    auto add_step = [&](const isa::GemmGrid &grid, double stream,
                        double store, double simd_elems) {
        desc.iteration.steps.push_back(
            stepBlock(grid, stream, store, simd_elems));
    };

    // Forward.
    for (std::size_t i = 0; i + 1 < mlp.dims.size(); ++i) {
        double din = static_cast<double>(mlp.dims[i]);
        double dout = static_cast<double>(mlp.dims[i + 1]);
        add_step(gridMode1(batch, mlp.dims[i], mlp.dims[i + 1]),
                 din * dout * bpv + b * din * bpv, b * dout * bpv,
                 b * dout * mlp.simd_passes);
    }
    // Data gradient (reverse; skip the input layer's dX).
    for (std::size_t i = mlp.dims.size() - 1; i >= 2; --i) {
        double din = static_cast<double>(mlp.dims[i - 1]);
        double dout = static_cast<double>(mlp.dims[i]);
        add_step(gridMode1(batch, mlp.dims[i], mlp.dims[i - 1]),
                 din * dout * bpv + b * dout * gbv, b * din * gbv,
                 b * din * 2.0);
    }
    // Weight gradient per layer: dW = X^T delta (tall mode 2).
    for (std::size_t i = 0; i + 1 < mlp.dims.size(); ++i) {
        double din = static_cast<double>(mlp.dims[i]);
        double dout = static_cast<double>(mlp.dims[i + 1]);
        add_step(gridMode2(mlp.dims[i], batch, mlp.dims[i + 1]),
                 b * din * bpv + b * dout * gbv + din * dout * acc,
                 din * dout * acc, 0.0);
    }

    desc.sync_bytes_per_iteration = static_cast<ByteCount>(
        static_cast<double>(model.paramCount()) * (gbv + bpv));
    // One checkpoint snapshots the master-precision weights; a rollback
    // re-reads the same image.
    desc.checkpoint_bytes = static_cast<ByteCount>(
        static_cast<double>(model.paramCount()) * topts.grad_acc_bytes);
    return desc;
}

sim::TrainingServiceDesc
Compiler::compileRnnTraining(const DnnModel &model, std::size_t batch,
                             const TrainingCompileOptions &topts) const
{
    const auto &rnn = model.rnn;
    const std::size_t h = rnn.hidden;
    const double bpv = bytesPerValue();
    const double gbv = topts.delta_bytes;
    const auto groups = static_cast<double>(rnn.gate_groups.size());
    unsigned total_gates = 0;
    for (unsigned g : rnn.gate_groups)
        total_gates += g;

    const double bh = static_cast<double>(batch) * static_cast<double>(h);
    const double hh = static_cast<double>(h) * static_cast<double>(h);

    sim::TrainingServiceDesc desc;
    desc.model_name = model.name;
    desc.iteration.name = model.name + "-train-iteration";
    desc.iteration.batch_rows = static_cast<std::uint32_t>(batch);
    desc.iteration.scale_rows_by_batch = false;

    // Forward pass: operands stream from DRAM through the staging
    // buffers (the weight buffer belongs to the inference context), and
    // activations/state for the backward pass stream back out.
    std::vector<isa::StepBlock> step_blocks;
    for (unsigned gates : rnn.gate_groups) {
        double stream = gates * hh * bpv + 2.0 * bh * bpv / groups;
        double store = (static_cast<double>(total_gates) + 2.0) * bh *
                       bpv / groups;
        step_blocks.push_back(stepBlock(gridMode1(batch, h, h, gates),
                                        stream, store,
                                        bh * rnn.simd_passes / groups));
    }
    appendPerTimeStep(desc.iteration, step_blocks, rnn.steps);

    // Data-gradient pass (reverse time order; same GEMM shapes against
    // transposed weights, which stream again).
    step_blocks.clear();
    for (unsigned gates : rnn.gate_groups) {
        double stream = gates * hh * bpv +
                        (static_cast<double>(total_gates) + 2.0) * bh *
                            bpv / groups;
        double store = gates * bh * gbv;
        step_blocks.push_back(stepBlock(
            gridMode1(batch, h, h, gates), stream, store,
            bh * (rnn.simd_passes + 2.0) / groups));
    }
    appendPerTimeStep(desc.iteration, step_blocks, rnn.steps);

    // Weight-gradient pass: dW_g = X^T . delta_g, a tall mode-2 product.
    // Consecutive time steps concatenate along the inner dimension
    // (dW = sum_t X_t^T d_t), amortising the DRAM read-modify-write of
    // the fp32 gradient accumulators over a small window.
    const std::size_t grad_window = topts.grad_window;
    const double acc_bytes = topts.grad_acc_bytes;
    for (std::size_t t0 = 0; t0 < rnn.steps; t0 += grad_window) {
        std::size_t window = std::min(grad_window, rnn.steps - t0);
        double win = static_cast<double>(window);
        double stream = win * bh * bpv +
                        static_cast<double>(total_gates) * win * bh * gbv +
                        static_cast<double>(total_gates) * hh * acc_bytes;
        double store = static_cast<double>(total_gates) * hh * acc_bytes;
        desc.iteration.steps.push_back(stepBlock(
            gridMode2(h, batch * window, h, total_gates), stream, store,
            0.0));
    }

    desc.sync_bytes_per_iteration = static_cast<ByteCount>(
        static_cast<double>(model.paramCount()) * (gbv + bpv));
    // One checkpoint snapshots the master-precision weights; a rollback
    // re-reads the same image.
    desc.checkpoint_bytes = static_cast<ByteCount>(
        static_cast<double>(model.paramCount()) * topts.grad_acc_bytes);
    return desc;
}

sim::TrainingServiceDesc
Compiler::compileCnnTraining(const DnnModel &model, std::size_t batch,
                             const TrainingCompileOptions &topts) const
{
    const auto &cnn = model.cnn;
    const double bpv = bytesPerValue();
    const double gbv = topts.delta_bytes;

    sim::TrainingServiceDesc desc;
    desc.model_name = model.name;
    desc.iteration.name = model.name + "-train-iteration";
    desc.iteration.batch_rows = static_cast<std::uint32_t>(batch);
    desc.iteration.scale_rows_by_batch = false;

    auto add_step = [&](const isa::GemmGrid &grid, double stream,
                        double store, double simd_elems) {
        desc.iteration.steps.push_back(
            stepBlock(grid, stream, store, simd_elems));
    };

    auto layer_bytes = [&](const ConvLayerSpec &l) {
        double in_pix = static_cast<double>(l.rowsPerImage()) *
                        static_cast<double>(l.stride * l.stride);
        double acts_in = in_pix * static_cast<double>(batch) *
                         static_cast<double>(l.c_in);
        double acts_out = static_cast<double>(l.rowsPerImage()) *
                          static_cast<double>(batch) *
                          static_cast<double>(l.c_out);
        double weights = static_cast<double>(l.gemmK()) *
                         static_cast<double>(l.c_out);
        return std::tuple{acts_in, acts_out, weights};
    };

    // The im2col unit lowers one image at a time (see
    // compileCnnInference), so forward and data-gradient GEMMs repeat
    // per image.

    // Forward pass.
    for (const auto &l : cnn.layers) {
        auto [acts_in, acts_out, weights] = layer_bytes(l);
        add_step(gridMode2(l.rowsPerImage(), l.gemmK(), l.c_out, batch),
                 weights * bpv + acts_in * bpv, acts_out * bpv,
                 acts_out * cnn.simd_passes);
    }
    // Data-gradient pass (reverse).
    for (auto it = cnn.layers.rbegin(); it != cnn.layers.rend(); ++it) {
        const auto &l = *it;
        auto [acts_in, acts_out, weights] = layer_bytes(l);
        add_step(gridMode2(l.rowsPerImage(), l.c_out, l.gemmK(), batch),
                 weights * bpv + acts_out * gbv,
                 acts_in * gbv, acts_in * 2.0);
    }
    // Weight-gradient pass (wide gradient accumulators in DRAM).
    const double acc_bytes = topts.grad_acc_bytes;
    for (const auto &l : cnn.layers) {
        auto [acts_in, acts_out, weights] = layer_bytes(l);
        add_step(gridMode2(l.gemmK(), l.rowsPerImage() * batch, l.c_out),
                 acts_in * bpv + acts_out * gbv + weights * acc_bytes,
                 weights * acc_bytes, 0.0);
    }

    desc.sync_bytes_per_iteration = static_cast<ByteCount>(
        static_cast<double>(model.paramCount()) * (gbv + bpv));
    // One checkpoint snapshots the master-precision weights; a rollback
    // re-reads the same image.
    desc.checkpoint_bytes = static_cast<ByteCount>(
        static_cast<double>(model.paramCount()) * topts.grad_acc_bytes);
    return desc;
}

} // namespace workload
} // namespace equinox
