/**
 * @file
 * Tests for the workload models and the tiling compiler.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/units.hh"
#include "sim/result_digest.hh"
#include "tile_grid_reference.hh"
#include "workload/compiler.hh"
#include "workload/dnn_model.hh"

namespace equinox
{
namespace workload
{
namespace
{

sim::AcceleratorConfig
equinox500Like()
{
    sim::AcceleratorConfig cfg;
    cfg.n = 143;
    cfg.m = 4;
    cfg.w = 4;
    cfg.frequency_hz = units::MHz(610);
    return cfg;
}

TEST(DnnModel, LstmParametersAndOps)
{
    auto lstm = DnnModel::lstm2048();
    EXPECT_EQ(lstm.rnn.hidden, 2048u);
    EXPECT_EQ(lstm.rnn.steps, 25u);
    // 4 gates x H^2 parameters under the documented convention.
    EXPECT_EQ(lstm.paramCount(), 4ull * 2048 * 2048);
    // 2 ops x 4 gates x H^2 x 25 steps per request.
    EXPECT_DOUBLE_EQ(lstm.opsPerRequest(), 2.0 * 4 * 2048 * 2048 * 25);
}

TEST(DnnModel, GruStructure)
{
    auto gru = DnnModel::gru2816();
    EXPECT_EQ(gru.rnn.hidden, 2816u);
    EXPECT_EQ(gru.rnn.steps, 1500u);
    unsigned gates = 0;
    for (unsigned g : gru.rnn.gate_groups)
        gates += g;
    EXPECT_EQ(gates, 3u);
    EXPECT_EQ(gru.rnn.gate_groups.size(), 2u); // candidate serialises
}

TEST(DnnModel, Resnet50Structure)
{
    auto resnet = DnnModel::resnet50();
    // 1 stem + 16 bottlenecks x 3 convs + 4 projection shortcuts.
    EXPECT_EQ(resnet.cnn.layers.size(), 1u + 16 * 3 + 4);
    // Parameter count ~25.5M (conv + fc, no BN).
    EXPECT_NEAR(static_cast<double>(resnet.paramCount()), 25.5e6,
                2.5e6);
    // ~4 GMACs per image (He et al. report 3.8-4.1 GFLOPs x 2).
    EXPECT_NEAR(static_cast<double>(resnet.macsPerRequest()), 4.0e9,
                0.7e9);
}

void
foldProgram(sim::ResultDigest &dg, const isa::CompiledProgram &prog)
{
    dg.u64(prog.steps.size());
    dg.u64(prog.batch_rows);
    dg.u64(prog.scale_rows_by_batch ? 1 : 0);
    for (const auto &sb : prog.steps) {
        dg.u64(sb.mmu.instructions);
        dg.u64(sb.mmu.occupancy);
        dg.u64(sb.mmu.rows_used);
        dg.u64(sb.mmu.rows_slots);
        dg.d(sb.mmu.geom_frac);
        dg.u64(sb.mmu.real_ops);
        dg.u64(sb.mmu.stream_bytes);
        dg.u64(sb.simd_cycles);
        dg.u64(sb.drain_cycles);
        dg.u64(sb.host_bytes);
        dg.u64(sb.store_bytes);
    }
}

/**
 * Every StepBlock field of every model's inference and training
 * program, on a Table-1-like array and on a ragged one, as exact bit
 * patterns. Recorded from the instruction-list compiler; the tile-grid
 * compiler must reproduce every bit.
 */
TEST(CompilerGolden, ProgramsAreBitIdentical)
{
    sim::AcceleratorConfig ragged;
    ragged.n = 29;
    ragged.m = 3;
    ragged.w = 7;
    ragged.frequency_hz = units::MHz(610);
    TrainingCompileOptions window3;
    window3.grad_window = 3;

    sim::ResultDigest dg;
    for (const auto &cfg : {equinox500Like(), ragged}) {
        Compiler compiler(cfg);
        for (const auto &model :
             {DnnModel::lstm2048(), DnnModel::gru2816(),
              DnnModel::resnet50(2), DnnModel::mlp4096()}) {
            auto inf = compiler.compileInference(model);
            foldProgram(dg, inf.program);
            dg.u64(inf.weight_footprint);
            dg.u64(inf.act_footprint);
            dg.u64(inf.input_bytes_per_request);
            dg.u64(inf.output_bytes_per_request);
            dg.d(inf.service_time_s);
            const bool cnn = model.kind == DnnModel::Kind::Cnn;
            for (std::size_t batch : {cnn ? 2ul : 128ul, cnn ? 3ul : 100ul}) {
                for (const auto &opts : {TrainingCompileOptions{}, window3}) {
                    auto tr = compiler.compileTraining(model, batch, opts);
                    foldProgram(dg, tr.iteration);
                    dg.u64(tr.sync_bytes_per_iteration);
                    dg.u64(tr.checkpoint_bytes);
                }
            }
        }
    }
    EXPECT_EQ(dg.value(), 0x8deee4de36c77c63ull);
}

/** TileWork of one grid on @p compiler's array. */
isa::TileWork
gridWork(const Compiler &compiler, const isa::GemmGrid &grid)
{
    return isa::makeTileWork(std::span(&grid, 1),
                             compiler.config().macsPerCycle(), 0);
}

TEST(Compiler, Mode1GemmInstructionCount)
{
    Compiler compiler(equinox500Like());
    // [143 x 2048] x [2048 x 2048]: ceil(2048/572)=4 k-chunks,
    // ceil(2048/572)=4 column chunks, one row chunk.
    auto grid = compiler.gridMode1(143, 2048, 2048);
    EXPECT_EQ(grid.row_slots, 143u);
    EXPECT_EQ(grid.k_slots, 572u);
    EXPECT_EQ(grid.col_slots, 572u);
    EXPECT_EQ(grid.tiles(), 16u);
    auto tw = gridWork(compiler, grid);
    EXPECT_EQ(tw.instructions, 16u);
    EXPECT_EQ(tw.real_ops, 2ull * 143 * 2048 * 2048);
    // Edge tiles carry the remainders: 3 full k chunks plus 332.
    auto insts = testref::gridInstructions(std::span(&grid, 1));
    ASSERT_EQ(insts.size(), 16u);
    EXPECT_EQ(insts.back().k_valid, 2048u - 3 * 572);
    EXPECT_EQ(insts.back().cols_valid, 2048u - 3 * 572);
}

TEST(Compiler, Mode2GemmInstructionCount)
{
    Compiler compiler(equinox500Like());
    // [2048 x 256] x [256 x 2048]: rows chunked by m*n=572 -> 4,
    // K=256 in one 572-slot chunk, cols chunked by n=143 -> 15.
    auto grid = compiler.gridMode2(2048, 256, 2048);
    EXPECT_EQ(grid.row_slots, 572u);
    EXPECT_EQ(grid.col_slots, 143u);
    EXPECT_EQ(grid.tiles(), 4u * 1 * 15);
    auto tw = gridWork(compiler, grid);
    EXPECT_EQ(tw.real_ops, 2ull * 2048 * 256 * 2048);
}

TEST(Compiler, GemmCoversAllMacsProperty)
{
    Compiler compiler(equinox500Like());
    const std::size_t dims[][3] = {{1, 1, 1},     {7, 100, 13},
                                   {143, 572, 572}, {200, 2049, 95},
                                   {1000, 128, 64}};
    for (const auto &d : dims) {
        for (int mode = 1; mode <= 2; ++mode) {
            auto grid = mode == 1
                            ? compiler.gridMode1(d[0], d[1], d[2])
                            : compiler.gridMode2(d[0], d[1], d[2]);
            std::uint64_t macs = 0;
            for (const auto &inst :
                 testref::gridInstructions(std::span(&grid, 1))) {
                macs += inst.realMacs();
                EXPECT_GT(inst.k_valid, 0u);
                EXPECT_GT(inst.cols_valid, 0u);
                EXPECT_GT(inst.rows_real, 0u);
            }
            const auto want =
                static_cast<std::uint64_t>(d[0]) * d[1] * d[2];
            EXPECT_EQ(macs, want)
                << "mode " << mode << " dims " << d[0] << "x" << d[1]
                << "x" << d[2];
            EXPECT_EQ(gridWork(compiler, grid).real_ops, 2 * want);
        }
    }
}

TEST(Compiler, LstmInferenceMatchesPaperServiceTime)
{
    // On the Equinox_500us-class design the LSTM service time must land
    // near the paper's 381-410 us (Table 1).
    Compiler compiler(equinox500Like());
    auto svc = compiler.compileInference(DnnModel::lstm2048());
    EXPECT_EQ(svc.program.steps.size(), 25u);
    EXPECT_EQ(svc.program.batch_rows, 143u);
    EXPECT_GT(svc.service_time_s, 350e-6);
    EXPECT_LT(svc.service_time_s, 450e-6);
    // 16 tile instructions x 4 gates per step.
    EXPECT_EQ(svc.program.totalInstructions(), 25u * 64);
    // Geometry efficiency ~0.8 gives the paper's 319-of-399 TOp/s.
    double geom = static_cast<double>(svc.program.totalRealOps()) /
                  (2.0 * 143 * 143 * 16 *
                   static_cast<double>(svc.program.mmuBusyCycles()));
    EXPECT_NEAR(geom, 0.80, 0.03);
}

TEST(Compiler, InferenceFootprintsFitBuffers)
{
    auto cfg = equinox500Like();
    Compiler compiler(cfg);
    for (const auto &model :
         {DnnModel::lstm2048(), DnnModel::gru2816(),
          DnnModel::resnet50()}) {
        auto svc = compiler.compileInference(model);
        EXPECT_LE(svc.weight_footprint, cfg.weight_buffer_bytes)
            << model.name;
        EXPECT_LE(svc.act_footprint, cfg.act_buffer_bytes) << model.name;
        EXPECT_GT(svc.service_time_s, 0.0);
    }
}

TEST(Compiler, GruHasTwoDependenceGroupsPerStep)
{
    Compiler compiler(equinox500Like());
    auto svc = compiler.compileInference(DnnModel::gru2816());
    EXPECT_EQ(svc.program.steps.size(), 1500u * 2);
}

TEST(Compiler, TrainingIterationStructure)
{
    Compiler compiler(equinox500Like());
    auto train = compiler.compileTraining(DnnModel::lstm2048(), 128);
    // fwd 25 + dgrad 25 + wgrad ceil(25/2)=13 windows.
    EXPECT_EQ(train.iteration.steps.size(), 25u + 25 + 13);
    EXPECT_FALSE(train.iteration.scale_rows_by_batch);
    EXPECT_EQ(train.iteration.batch_rows, 128u);
    // Every step streams operands from DRAM (staging-buffer execution).
    for (const auto &s : train.iteration.steps)
        EXPECT_GT(s.mmu.stream_bytes, 0u);
    EXPECT_GT(train.sync_bytes_per_iteration, 0u);
}

TEST(Compiler, TrainingIsDramHeavy)
{
    // The LSTM iteration's arithmetic intensity must land near the
    // calibrated ~110-120 ops/byte that caps training at ~107 TOp/s on
    // a 1 TB/s stack (Figure 9's ceiling).
    Compiler compiler(equinox500Like());
    auto train = compiler.compileTraining(DnnModel::lstm2048(), 128);
    double bytes = 0.0;
    for (const auto &s : train.iteration.steps)
        bytes += static_cast<double>(s.mmu.stream_bytes + s.store_bytes);
    double intensity =
        static_cast<double>(train.iteration.totalRealOps()) / bytes;
    EXPECT_GT(intensity, 90.0);
    EXPECT_LT(intensity, 150.0);
}

TEST(Compiler, TrainingOpsMatchAnalyticCount)
{
    Compiler compiler(equinox500Like());
    const std::size_t batch = 128;
    auto train = compiler.compileTraining(DnnModel::lstm2048(), batch);
    // fwd + dgrad + wgrad each perform batch x params MACs per step set.
    double expect = 3.0 * 2.0 *
                    static_cast<double>(
                        DnnModel::lstm2048().paramCount()) *
                    static_cast<double>(batch) * 25.0;
    EXPECT_NEAR(static_cast<double>(train.iteration.totalRealOps()),
                expect, expect * 1e-9);
}

TEST(Compiler, CnnTrainingIterationStructure)
{
    // One forward, one data-gradient and one weight-gradient step per
    // conv layer; the dgrad pass runs the layers in reverse. Each
    // backward GEMM does exactly the forward GEMM's MACs.
    Compiler compiler(equinox500Like());
    const std::size_t batch = 2;
    auto model = DnnModel::resnet50();
    auto train = compiler.compileTraining(model, batch);
    const auto &layers = model.cnn.layers;
    const auto &steps = train.iteration.steps;
    const std::size_t n = layers.size();
    ASSERT_EQ(steps.size(), 3 * n);
    EXPECT_FALSE(train.iteration.scale_rows_by_batch);
    EXPECT_EQ(train.iteration.batch_rows, batch);
    for (std::size_t i = 0; i < n; ++i) {
        const OpCount fwd = steps[i].mmu.real_ops;
        EXPECT_EQ(fwd, 2 * layers[i].macsPerImage() * batch) << i;
        EXPECT_EQ(steps[2 * n - 1 - i].mmu.real_ops, fwd) << "dgrad " << i;
        EXPECT_EQ(steps[2 * n + i].mmu.real_ops, fwd) << "wgrad " << i;
    }
    const TrainingCompileOptions topts;
    const double params = static_cast<double>(model.paramCount());
    EXPECT_EQ(train.sync_bytes_per_iteration,
              static_cast<ByteCount>(
                  params * (topts.delta_bytes + compiler.bytesPerValue())));
    EXPECT_EQ(train.checkpoint_bytes,
              static_cast<ByteCount>(params * topts.grad_acc_bytes));
}

TEST(Compiler, CnnInferenceUnderfillsRows)
{
    // Per-image lowering leaves deep-layer rows underfilled: ResNet50's
    // effective throughput is a small fraction of the LSTM's (Table 2).
    auto cfg = equinox500Like();
    Compiler compiler(cfg);
    auto lstm = compiler.compileInference(DnnModel::lstm2048());
    auto resnet = compiler.compileInference(DnnModel::resnet50());
    auto efficiency = [&](const sim::InferenceServiceDesc &svc) {
        return static_cast<double>(svc.program.totalRealOps()) /
               (2.0 * static_cast<double>(cfg.macsPerCycle()) *
                static_cast<double>(svc.program.mmuBusyCycles()));
    };
    EXPECT_LT(efficiency(resnet), 0.5 * efficiency(lstm));
}

TEST(Compiler, SimdCyclesCeiling)
{
    auto cfg = equinox500Like();
    cfg.simd_lanes = 100;
    Compiler compiler(cfg);
    EXPECT_EQ(compiler.simdCycles(100.0), 1u);
    EXPECT_EQ(compiler.simdCycles(101.0), 2u);
    EXPECT_EQ(compiler.simdCycles(0.0), 0u);
}

TEST(Compiler, BytesPerValueByEncoding)
{
    auto cfg = equinox500Like();
    cfg.encoding = arith::Encoding::Hbfp8;
    EXPECT_NEAR(Compiler(cfg).bytesPerValue(), 1.006, 0.01);
    cfg.encoding = arith::Encoding::Bfloat16;
    EXPECT_DOUBLE_EQ(Compiler(cfg).bytesPerValue(), 2.0);
}

} // namespace
} // namespace workload
} // namespace equinox

// Appended: randomized conservation properties of the compiler.

#include "common/random.hh"

namespace equinox
{
namespace workload
{
namespace
{

TEST(CompilerProperty, TrainingOpsScaleLinearlyWithBatch)
{
    Compiler compiler(equinox500Like());
    DnnModel tiny;
    tiny.name = "t";
    tiny.kind = DnnModel::Kind::Rnn;
    tiny.rnn.hidden = 256;
    tiny.rnn.steps = 3;
    tiny.rnn.gate_groups = {2};
    auto ops_at = [&](std::size_t batch) {
        return static_cast<double>(
            compiler.compileTraining(tiny, batch).iteration
                .totalRealOps());
    };
    EXPECT_NEAR(ops_at(64) / ops_at(32), 2.0, 1e-9);
    EXPECT_NEAR(ops_at(96) / ops_at(32), 3.0, 1e-9);
}

TEST(CompilerProperty, GeometryFractionBounded)
{
    // For random array geometries and GEMM dims, geom_frac must stay in
    // (0, 1] and real ops must be conserved exactly.
    Rng rng(13);
    for (int trial = 0; trial < 40; ++trial) {
        sim::AcceleratorConfig cfg;
        cfg.n = 1 + static_cast<unsigned>(rng.uniformInt(0, 40));
        cfg.m = 1 + static_cast<unsigned>(rng.uniformInt(0, 7));
        cfg.w = 1 + static_cast<unsigned>(rng.uniformInt(0, 7));
        cfg.frequency_hz = 1e8;
        Compiler compiler(cfg);
        std::size_t rows = 1 + rng.uniformInt(0, 99);
        std::size_t k = 1 + rng.uniformInt(0, 999);
        std::size_t cols = 1 + rng.uniformInt(0, 999);
        auto tw = gridWork(compiler, compiler.gridMode1(rows, k, cols));
        EXPECT_GT(tw.geom_frac, 0.0);
        EXPECT_LE(tw.geom_frac, 1.0 + 1e-12);
        EXPECT_EQ(tw.real_ops, 2ull * rows * k * cols);
        EXPECT_GT(tw.occupancy, 0u);
    }
}

TEST(CompilerProperty, ServiceTimeShrinksWithBiggerArrays)
{
    // More MACs per cycle at equal frequency can only speed a batch up.
    DnnModel model = DnnModel::lstm2048();
    double prev = 1e9;
    for (unsigned m : {1u, 2u, 4u, 8u}) {
        sim::AcceleratorConfig cfg;
        cfg.n = 143;
        cfg.m = m;
        cfg.w = 4;
        cfg.frequency_hz = 610e6;
        Compiler compiler(cfg);
        auto svc = compiler.compileInference(model);
        EXPECT_LT(svc.service_time_s, prev * 1.001) << "m=" << m;
        prev = svc.service_time_s;
    }
}

} // namespace
} // namespace workload
} // namespace equinox
