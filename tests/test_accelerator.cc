/**
 * @file
 * Simulator tests: exact latency accounting on synthetic programs, plus
 * behavioural invariants (batching, scheduling policies, training
 * co-location) on small compiled workloads.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/units.hh"
#include "sim/accelerator.hh"
#include "workload/compiler.hh"
#include "workload/dnn_model.hh"

namespace equinox
{
namespace sim
{
namespace
{

/** A small test design: n=8, m=2, w=2 at 100 MHz. */
AcceleratorConfig
smallConfig()
{
    AcceleratorConfig cfg;
    cfg.name = "test";
    cfg.n = 8;
    cfg.m = 2;
    cfg.w = 2;
    cfg.frequency_hz = units::MHz(100);
    cfg.simd_lanes = 256;
    return cfg;
}

/** A tiny RNN model that compiles quickly on smallConfig(). */
workload::DnnModel
tinyRnn()
{
    workload::DnnModel model;
    model.name = "tiny";
    model.kind = workload::DnnModel::Kind::Rnn;
    model.rnn.hidden = 64;
    model.rnn.steps = 4;
    model.rnn.gate_groups = {2};
    model.rnn.simd_passes = 4.0;
    return model;
}

/** Hand-built one-service program with exact, known timing. */
InferenceServiceDesc
syntheticService(std::uint32_t batch_rows, std::size_t steps,
                 Tick occupancy, Tick simd, Tick drain, double freq)
{
    InferenceServiceDesc desc;
    desc.model_name = "synthetic";
    desc.program.name = "synthetic";
    desc.program.batch_rows = batch_rows;
    for (std::size_t s = 0; s < steps; ++s) {
        isa::StepBlock sb;
        sb.mmu.instructions = 1;
        sb.mmu.occupancy = occupancy;
        sb.mmu.rows_used = batch_rows;
        sb.mmu.rows_slots = batch_rows;
        sb.mmu.geom_frac = 1.0;
        sb.mmu.real_ops = occupancy * 1000;
        sb.simd_cycles = simd;
        sb.drain_cycles = drain;
        desc.program.steps.push_back(sb);
    }
    desc.service_time_s = units::cyclesToSeconds(
        desc.program.serviceCycles(), freq);
    return desc;
}

TEST(Accelerator, SingleRequestLatencyIsTimeoutPlusService)
{
    auto cfg = smallConfig();
    cfg.batch_timeout_mult = 2.0;
    Accelerator accel(cfg);
    auto svc = syntheticService(4, 3, 100, 10, 5, cfg.frequency_hz);
    Tick service = svc.program.serviceCycles();
    EXPECT_EQ(service, 3u * (100 + 10 + 5));
    Tick timeout = 2 * service;
    accel.installInference(std::move(svc));

    RunSpec spec;
    spec.arrival_rate_per_s = 50.0; // sparse: every batch has 1 request
    spec.warmup_requests = 0;
    spec.measure_requests = 20;
    spec.seed = 3;
    auto res = accel.run(spec);

    // Every request waits for the adaptive timeout, then runs alone.
    double expect_s = units::cyclesToSeconds(timeout + service,
                                             cfg.frequency_hz);
    EXPECT_NEAR(res.mean_latency_s, expect_s, expect_s * 0.01);
    EXPECT_NEAR(res.p99_latency_s, expect_s, expect_s * 0.01);
    EXPECT_EQ(res.batches_formed, res.batches_incomplete);
    EXPECT_NEAR(res.avg_batch_fill, 0.25, 1e-9);
}

TEST(Accelerator, DeterministicAcrossRuns)
{
    auto cfg = smallConfig();
    workload::Compiler compiler(cfg);
    RunSpec spec;
    spec.warmup_requests = 20;
    spec.measure_requests = 300;
    spec.seed = 11;

    SimResult first;
    for (int i = 0; i < 2; ++i) {
        Accelerator accel(cfg);
        accel.installInference(compiler.compileInference(tinyRnn()));
        spec.arrival_rate_per_s = 0.4 * accel.maxRequestRate();
        auto res = accel.run(spec);
        if (i == 0) {
            first = res;
        } else {
            EXPECT_DOUBLE_EQ(res.p99_latency_s, first.p99_latency_s);
            EXPECT_DOUBLE_EQ(res.inference_throughput_ops,
                             first.inference_throughput_ops);
            EXPECT_EQ(res.completed_requests, first.completed_requests);
        }
    }
}

TEST(Accelerator, RunIsRepeatableOnOneInstance)
{
    auto cfg = smallConfig();
    workload::Compiler compiler(cfg);
    Accelerator accel(cfg);
    accel.installInference(compiler.compileInference(tinyRnn()));
    RunSpec spec;
    spec.arrival_rate_per_s = 0.5 * accel.maxRequestRate();
    spec.warmup_requests = 10;
    spec.measure_requests = 200;
    auto a = accel.run(spec);
    auto b = accel.run(spec);
    EXPECT_DOUBLE_EQ(a.p99_latency_s, b.p99_latency_s);
    EXPECT_DOUBLE_EQ(a.inference_throughput_ops,
                     b.inference_throughput_ops);
}

TEST(Accelerator, ThroughputTracksOfferedLoadWhenSubcritical)
{
    auto cfg = smallConfig();
    workload::Compiler compiler(cfg);
    for (double load : {0.2, 0.5, 0.8}) {
        Accelerator accel(cfg);
        accel.installInference(compiler.compileInference(tinyRnn()));
        RunSpec spec;
        spec.arrival_rate_per_s = load * accel.maxRequestRate();
        spec.warmup_requests = 100;
        spec.measure_requests = 2000;
        auto res = accel.run(spec);
        double offered_ops = load * accel.maxInferenceOpRate();
        EXPECT_NEAR(res.inference_throughput_ops / offered_ops, 1.0, 0.1)
            << "load " << load;
    }
}

TEST(Accelerator, SaturationThroughputMatchesAnalyticMax)
{
    auto cfg = smallConfig();
    workload::Compiler compiler(cfg);
    Accelerator accel(cfg);
    accel.installInference(compiler.compileInference(tinyRnn()));
    RunSpec spec;
    spec.arrival_rate_per_s = 1.5 * accel.maxRequestRate();
    spec.warmup_requests = 200;
    spec.measure_requests = 3000;
    auto res = accel.run(spec);
    EXPECT_NEAR(res.inference_throughput_ops / accel.maxInferenceOpRate(),
                1.0, 0.05);
}

TEST(Accelerator, BreakdownCoversAllMeasuredCycles)
{
    auto cfg = smallConfig();
    workload::Compiler compiler(cfg);
    Accelerator accel(cfg);
    accel.installInference(compiler.compileInference(tinyRnn()));
    RunSpec spec;
    spec.arrival_rate_per_s = 0.5 * accel.maxRequestRate();
    spec.warmup_requests = 50;
    spec.measure_requests = 500;
    auto res = accel.run(spec);
    double total_cycles = res.sim_seconds * cfg.frequency_hz;
    EXPECT_NEAR(res.mmu_breakdown.total() / total_cycles, 1.0, 0.02);
}

TEST(Accelerator, DummyFractionFallsWithLoad)
{
    auto cfg = smallConfig();
    workload::Compiler compiler(cfg);
    auto run_at = [&](double load) {
        Accelerator accel(cfg);
        accel.installInference(compiler.compileInference(tinyRnn()));
        RunSpec spec;
        spec.arrival_rate_per_s = load * accel.maxRequestRate();
        spec.warmup_requests = 50;
        spec.measure_requests = 1000;
        return accel.run(spec);
    };
    auto low = run_at(0.05);
    auto high = run_at(0.9);
    EXPECT_GT(low.mmu_breakdown.fraction(stats::CycleClass::Dummy),
              high.mmu_breakdown.fraction(stats::CycleClass::Dummy));
    EXPECT_GT(low.mmu_breakdown.fraction(stats::CycleClass::Idle),
              high.mmu_breakdown.fraction(stats::CycleClass::Idle));
    EXPECT_LT(low.avg_batch_fill, 0.5);
    EXPECT_GT(high.avg_batch_fill, 0.9);
}

TEST(Accelerator, StaticBatchingWorseAtLowLoad)
{
    auto cfg = smallConfig();
    workload::Compiler compiler(cfg);
    auto p99_with = [&](BatchPolicy policy) {
        auto c = cfg;
        c.batch_policy = policy;
        Accelerator accel(c);
        workload::Compiler comp(c);
        accel.installInference(comp.compileInference(tinyRnn()));
        RunSpec spec;
        spec.arrival_rate_per_s = 0.15 * accel.maxRequestRate();
        spec.warmup_requests = 50;
        spec.measure_requests = 800;
        return accel.run(spec).p99_latency_s;
    };
    EXPECT_GT(p99_with(BatchPolicy::Static),
              2.0 * p99_with(BatchPolicy::Adaptive));
}

TEST(Accelerator, LargerTimeoutRaisesTailLatencyAtLowLoad)
{
    auto cfg = smallConfig();
    double prev = 0.0;
    for (double mult : {2.0, 6.0, 10.0}) {
        auto c = cfg;
        c.batch_timeout_mult = mult;
        workload::Compiler compiler(c);
        Accelerator accel(c);
        accel.installInference(compiler.compileInference(tinyRnn()));
        RunSpec spec;
        spec.arrival_rate_per_s = 0.05 * accel.maxRequestRate();
        spec.warmup_requests = 20;
        spec.measure_requests = 500;
        auto res = accel.run(spec);
        EXPECT_GE(res.p99_latency_s, prev);
        prev = res.p99_latency_s;
    }
}

TEST(Accelerator, TrainingOnlyRunIsDramPaced)
{
    auto cfg = smallConfig();
    workload::Compiler compiler(cfg);
    Accelerator accel(cfg);
    accel.installInference(compiler.compileInference(tinyRnn()));
    accel.installTraining(compiler.compileTraining(tinyRnn(), 16));

    RunSpec spec;
    spec.arrival_rate_per_s = 0.0;
    spec.measure_iterations = 30;
    auto res = accel.run(spec);
    EXPECT_EQ(res.training_iterations, 30u);
    EXPECT_GT(res.training_throughput_ops, 0.0);
    // Throughput cannot exceed what the iteration's DRAM traffic allows.
    auto train = compiler.compileTraining(tinyRnn(), 16);
    double bytes = 0.0;
    for (const auto &s : train.iteration.steps)
        bytes += static_cast<double>(s.mmu.stream_bytes + s.store_bytes);
    double dram_bound = static_cast<double>(train.iteration.totalRealOps())
                        / bytes * cfg.dram.bandwidth_bytes_per_s;
    EXPECT_LE(res.training_throughput_ops, dram_bound * 1.01);
}

TEST(Accelerator, PriorityKeepsInferenceThroughput)
{
    auto cfg = smallConfig();
    workload::Compiler compiler(cfg);
    auto run_case = [&](bool with_training, SchedPolicy policy) {
        auto c = cfg;
        c.sched_policy = policy;
        workload::Compiler comp(c);
        Accelerator accel(c);
        accel.installInference(comp.compileInference(tinyRnn()));
        if (with_training)
            accel.installTraining(comp.compileTraining(tinyRnn(), 16));
        RunSpec spec;
        spec.arrival_rate_per_s = 0.85 * accel.maxRequestRate();
        spec.warmup_requests = 100;
        spec.measure_requests = 1500;
        return accel.run(spec);
    };
    auto baseline = run_case(false, SchedPolicy::InferenceOnly);
    auto priority = run_case(true, SchedPolicy::Priority);
    EXPECT_NEAR(priority.inference_throughput_ops /
                    baseline.inference_throughput_ops,
                1.0, 0.08);
    EXPECT_GT(priority.training_throughput_ops, 0.0);
}

TEST(Accelerator, FairShareSacrificesInferenceAtHighLoad)
{
    auto cfg = smallConfig();
    auto run_policy = [&](SchedPolicy policy) {
        auto c = cfg;
        c.sched_policy = policy;
        workload::Compiler comp(c);
        Accelerator accel(c);
        accel.installInference(comp.compileInference(tinyRnn()));
        accel.installTraining(comp.compileTraining(tinyRnn(), 16));
        RunSpec spec;
        spec.arrival_rate_per_s = 0.9 * accel.maxRequestRate();
        spec.warmup_requests = 100;
        spec.measure_requests = 1200;
        spec.max_sim_s = 5.0;
        return accel.run(spec);
    };
    auto fair = run_policy(SchedPolicy::FairShare);
    auto prio = run_policy(SchedPolicy::Priority);
    EXPECT_LT(fair.inference_throughput_ops,
              0.9 * prio.inference_throughput_ops);
    EXPECT_GT(fair.p99_latency_s, prio.p99_latency_s);
}

TEST(Accelerator, TrainingThroughputFallsWithLoad)
{
    auto cfg = smallConfig();
    workload::Compiler compiler(cfg);
    double prev = 1e30;
    for (double load : {0.1, 0.5, 0.9}) {
        Accelerator accel(cfg);
        accel.installInference(compiler.compileInference(tinyRnn()));
        accel.installTraining(compiler.compileTraining(tinyRnn(), 16));
        RunSpec spec;
        spec.arrival_rate_per_s = load * accel.maxRequestRate();
        spec.warmup_requests = 100;
        spec.measure_requests = 1500;
        auto res = accel.run(spec);
        EXPECT_LT(res.training_throughput_ops, prev * 1.05)
            << "load " << load;
        prev = res.training_throughput_ops;
    }
}

TEST(Accelerator, SoftwareSchedulerStarvesTraining)
{
    auto cfg = smallConfig();
    cfg.sched_policy = SchedPolicy::SoftwareBatch;
    workload::Compiler compiler(cfg);
    Accelerator accel(cfg);
    accel.installInference(compiler.compileInference(tinyRnn()));
    accel.installTraining(compiler.compileTraining(tinyRnn(), 16));
    RunSpec spec;
    spec.arrival_rate_per_s = 0.5 * accel.maxRequestRate();
    spec.warmup_requests = 100;
    spec.measure_requests = 1000;
    auto res = accel.run(spec);
    // At meaningful load the software control plane cannot find idle
    // windows long enough for an unpreemptible training batch.
    Accelerator hw(smallConfig());
    workload::Compiler hwc(smallConfig());
    hw.installInference(hwc.compileInference(tinyRnn()));
    hw.installTraining(hwc.compileTraining(tinyRnn(), 16));
    auto hw_res = hw.run(spec);
    EXPECT_LT(res.training_throughput_ops,
              0.25 * hw_res.training_throughput_ops);
}

TEST(BatchTimeout, RearmsAgainstNewFrontAfterQueueDrains)
{
    // Regression: the adaptive timeout armed for request A must not fire
    // a premature partial batch for a request that arrived after A's
    // batch already formed. Here A+B form a full batch (clearing the
    // queue) while A's timer is still pending; C arrives one cycle
    // before that timer fires, so the handler must re-arm against C's
    // arrival rather than cutting C's wait short.
    auto cfg = smallConfig();
    cfg.batch_timeout_mult = 2.0;
    Accelerator accel(cfg);
    auto svc = syntheticService(2, 3, 100, 10, 5, cfg.frequency_hz);
    Tick service = svc.program.serviceCycles(); // 345 cycles
    Tick timeout = 2 * service;                 // 690 cycles
    accel.installInference(std::move(svc));

    RunSpec spec;
    spec.arrival_trace_ticks = {0, 100, timeout - 1};
    spec.warmup_requests = 0;
    spec.measure_requests = 3;
    auto res = accel.run(spec);

    EXPECT_EQ(res.completed_requests, 3u);
    EXPECT_EQ(res.batches_formed, 2u);
    EXPECT_EQ(res.batches_incomplete, 1u);
    // C waits its own full adaptive timeout, then runs alone.
    double expect_max = units::cyclesToSeconds(timeout + service,
                                               cfg.frequency_hz);
    EXPECT_NEAR(res.max_latency_s, expect_max, expect_max * 0.001);
}

TEST(BatchTimeout, FiringIntoAnEmptyQueueIsHarmless)
{
    // Regression: a timer armed for a request whose batch later filled
    // and dispatched fires into an empty pending queue; it must form
    // nothing and leave the timeout machinery re-armable.
    auto cfg = smallConfig();
    cfg.batch_timeout_mult = 2.0;
    Accelerator accel(cfg);
    auto svc = syntheticService(2, 3, 100, 10, 5, cfg.frequency_hz);
    Tick service = svc.program.serviceCycles();
    Tick timeout = 2 * service;
    accel.installInference(std::move(svc));

    RunSpec spec;
    // A+B fill a batch before A's timer fires; D arrives long after the
    // stale timer expired and must still get a freshly armed timeout.
    spec.arrival_trace_ticks = {0, 100, 3 * timeout};
    spec.warmup_requests = 0;
    spec.measure_requests = 3;
    auto res = accel.run(spec);

    EXPECT_EQ(res.completed_requests, 3u);
    EXPECT_EQ(res.batches_formed, 2u);
    EXPECT_EQ(res.batches_incomplete, 1u);
    double expect_max = units::cyclesToSeconds(timeout + service,
                                               cfg.frequency_hz);
    EXPECT_NEAR(res.max_latency_s, expect_max, expect_max * 0.001);
}

TEST(AcceleratorDeath, OversizedServiceFailsInstallation)
{
    auto cfg = smallConfig();
    cfg.weight_buffer_bytes = 1024; // far too small
    Accelerator accel(cfg);
    workload::Compiler compiler(smallConfig());
    auto svc = compiler.compileInference(tinyRnn());
    EXPECT_DEATH(
        {
            Accelerator a(cfg);
            a.installInference(std::move(svc));
        },
        "exceed the weight buffer");
}

} // namespace
} // namespace sim
} // namespace equinox
