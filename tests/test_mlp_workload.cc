/**
 * @file
 * Tests for the MLP workload kind and its lowering (inference and
 * training), plus trace-playback arrivals.
 */

#include <gtest/gtest.h>

#include "common/units.hh"
#include "sim/accelerator.hh"
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

TEST(MlpModel, ParametersAndOps)
{
    auto mlp = DnnModel::mlp4096();
    EXPECT_EQ(mlp.kind, DnnModel::Kind::Mlp);
    std::uint64_t expect = 1024ull * 4096 + 4096ull * 4096 +
                           4096ull * 4096 + 4096ull * 1024;
    EXPECT_EQ(mlp.paramCount(), expect);
    EXPECT_DOUBLE_EQ(mlp.opsPerRequest(),
                     2.0 * static_cast<double>(expect));
}

TEST(MlpCompiler, InferenceOneStepPerLayer)
{
    Compiler compiler(equinox500Like());
    auto svc = compiler.compileInference(DnnModel::mlp4096());
    EXPECT_EQ(svc.program.steps.size(), 4u);
    EXPECT_EQ(svc.program.batch_rows, 143u);
    // All MACs accounted for.
    double ops = static_cast<double>(svc.program.totalRealOps());
    EXPECT_DOUBLE_EQ(ops, 143.0 * DnnModel::mlp4096().opsPerRequest());
    EXPECT_GT(svc.service_time_s, 0.0);
    EXPECT_LT(svc.service_time_s, 1e-3);
}

TEST(MlpCompiler, TrainingPassStructure)
{
    Compiler compiler(equinox500Like());
    auto train = compiler.compileTraining(DnnModel::mlp4096(), 128);
    // fwd 4 + dgrad 3 (input layer's dX skipped) + wgrad 4.
    EXPECT_EQ(train.iteration.steps.size(), 4u + 3 + 4);
    for (const auto &s : train.iteration.steps)
        EXPECT_GT(s.mmu.stream_bytes, 0u);
    // Ops: fwd B*params + dgrad B*(params - first layer) + wgrad
    // B*params.
    auto mlp = DnnModel::mlp4096();
    double first_layer = 1024.0 * 4096;
    double expect = 2.0 * 128 *
                    (2.0 * static_cast<double>(mlp.paramCount()) +
                     (static_cast<double>(mlp.paramCount()) -
                      first_layer));
    EXPECT_NEAR(static_cast<double>(train.iteration.totalRealOps()),
                expect, expect * 1e-9);
}

TEST(MlpWorkload, RunsEndToEndWithTraining)
{
    auto cfg = equinox500Like();
    Compiler compiler(cfg);
    sim::Accelerator accel(cfg);
    accel.installInference(compiler.compileInference(
        DnnModel::mlp4096()));
    accel.installTraining(compiler.compileTraining(DnnModel::mlp4096(),
                                                   128));
    sim::RunSpec spec;
    spec.arrival_rate_per_s = 0.5 * accel.maxRequestRate();
    spec.warmup_requests = 100;
    spec.measure_requests = 1000;
    auto res = accel.run(spec);
    EXPECT_GT(res.inference_throughput_ops, 0.0);
    EXPECT_GT(res.training_throughput_ops, 0.0);
    EXPECT_LT(res.p99_latency_s, 5e-3);
}

TEST(TracePlayback, ArrivalsFollowTheTrace)
{
    auto cfg = equinox500Like();
    Compiler compiler(cfg);
    sim::Accelerator accel(cfg);
    accel.installInference(compiler.compileInference(
        DnnModel::mlp4096()));

    // 2 full batches' worth of requests at exact instants.
    sim::RunSpec spec;
    std::size_t n = 143;
    for (std::size_t i = 0; i < 2 * n; ++i)
        spec.arrival_trace_ticks.push_back(units::secondsToCycles(
            1e-6 * static_cast<double>(i), cfg.frequency_hz));
    spec.warmup_requests = 0;
    spec.measure_requests = 2 * n;
    spec.max_sim_s = 1.0;
    auto res = accel.run(spec);
    EXPECT_EQ(res.completed_requests, 2 * n);
    EXPECT_GT(res.p99_latency_s, 0.0);
}

TEST(TracePlayback, DeterministicReplay)
{
    auto cfg = equinox500Like();
    Compiler compiler(cfg);
    sim::RunSpec spec;
    for (std::size_t i = 0; i < 300; ++i)
        spec.arrival_trace_ticks.push_back(units::secondsToCycles(
            3e-6 * static_cast<double>(i), cfg.frequency_hz));
    spec.warmup_requests = 0;
    spec.measure_requests = 280;
    spec.max_sim_s = 1.0;

    double p99[2];
    for (int run = 0; run < 2; ++run) {
        sim::Accelerator accel(cfg);
        accel.installInference(compiler.compileInference(
            DnnModel::mlp4096()));
        p99[run] = accel.run(spec).p99_latency_s;
    }
    EXPECT_DOUBLE_EQ(p99[0], p99[1]);
}

TEST(TracePlaybackDeath, NonAscendingTraceIsFatal)
{
    auto cfg = equinox500Like();
    Compiler compiler(cfg);
    sim::RunSpec spec;
    spec.arrival_trace_ticks = {
        units::secondsToCycles(1e-3, cfg.frequency_hz),
        units::secondsToCycles(0.5e-3, cfg.frequency_hz)};
    spec.measure_requests = 2;
    EXPECT_DEATH(
        {
            sim::Accelerator accel(cfg);
            accel.installInference(compiler.compileInference(
                DnnModel::mlp4096()));
            accel.run(spec);
        },
        "ascending");
}

} // namespace
} // namespace workload
} // namespace equinox
