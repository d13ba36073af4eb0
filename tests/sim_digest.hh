/**
 * @file
 * Shared identity-test machinery: the FNV-1a result digest, the small
 * n=8 m=2 w=2 test design, the tiny RNN workload, and the canonical
 * mixed inference+training scenario. test_refactor_identity pins the
 * digests of the block/port refactor against golden constants,
 * test_parallel_identity compares serial vs parallel sweeps, and
 * test_obs proves observability is perturbation-free -- all three must
 * fold the exact same bits in the exact same order, so the folds live
 * here once.
 */

#ifndef EQUINOX_TESTS_SIM_DIGEST_HH
#define EQUINOX_TESTS_SIM_DIGEST_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/units.hh"
#include "core/experiment.hh"
#include "sim/accelerator.hh"
#include "sim/result_digest.hh"
#include "workload/compiler.hh"
#include "workload/dnn_model.hh"

namespace equinox
{
namespace testutil
{

/**
 * The digest machinery lives in src/sim/result_digest.hh, next to the
 * SimResult it folds; these aliases keep every existing test spelling
 * working.
 */
using ResultDigest = sim::ResultDigest;

/** Fold every SimResult field, in a fixed documented order. */
inline void
foldSim(ResultDigest &dg, const sim::SimResult &r)
{
    sim::foldSimResult(dg, r);
}

/** Digest one SimResult (the refactor-identity golden constants). */
inline std::uint64_t
digestOf(const sim::SimResult &r)
{
    return sim::resultDigest(r);
}

/** Fold a whole sweep, every field of every point, in input order. */
inline std::uint64_t
digestOf(const std::vector<core::LoadPointResult> &results)
{
    ResultDigest dg;
    dg.u64(results.size());
    for (const auto &r : results) {
        dg.d(r.load);
        foldSim(dg, r.sim);
        dg.d(r.inference_tops);
        dg.d(r.training_tops);
        dg.d(r.p99_ms);
        dg.d(r.mean_ms);
        dg.d(r.max_inference_tops);
        dg.d(r.service_time_ms);
    }
    return dg.value();
}

/** The small test design the simulator tests share: n=8 m=2 w=2. */
inline sim::AcceleratorConfig
smallConfig(const std::string &name = "identity")
{
    sim::AcceleratorConfig cfg;
    cfg.name = name;
    cfg.n = 8;
    cfg.m = 2;
    cfg.w = 2;
    cfg.frequency_hz = units::MHz(100);
    cfg.simd_lanes = 256;
    return cfg;
}

inline workload::DnnModel
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

/**
 * The mixed inference+training run the golden refactor-identity
 * constants were recorded from. @p sink, when given, is installed
 * before the run -- observability must not move the digest.
 */
inline sim::SimResult
runScenario(sim::SchedPolicy policy, const fault::FaultPlan &faults,
            sim::TraceSink *sink = nullptr)
{
    auto cfg = smallConfig();
    cfg.sched_policy = policy;
    workload::Compiler compiler(cfg);
    sim::Accelerator accel(cfg);
    accel.installInference(compiler.compileInference(tinyRnn()));
    accel.installTraining(compiler.compileTraining(tinyRnn(), 16));
    if (sink)
        accel.setTraceSink(sink);
    sim::RunSpec spec;
    spec.warmup_requests = 30;
    spec.measure_requests = 400;
    spec.seed = 17;
    spec.arrival_rate_per_s = 0.4 * accel.maxRequestRate();
    spec.faults = faults;
    return accel.run(spec);
}

/** The golden digests of runScenario / the training-only run, recorded
 * from the pre-refactor monolithic simulator. See
 * test_refactor_identity.cc for the re-recording policy. */
constexpr std::uint64_t kGoldenFaultFreePriority = 9598426128261729103ull;
constexpr std::uint64_t kGoldenFaultFreeFairShare = 3136427541025947968ull;
constexpr std::uint64_t kGoldenActiveFaultPlan = 7691949600349461230ull;
constexpr std::uint64_t kGoldenTrainingOnly = 15216487330587529517ull;

/** The fault plan of the ActiveFaultPlan golden scenario. */
inline fault::FaultPlan
densePlan()
{
    fault::FaultPlan plan;
    plan.seed = 23;
    plan.dram_bit_error_rate = 1e-7;
    plan.host_drop_prob = 0.05;
    plan.mmu_hang_rate_per_s = 200.0;
    return plan;
}

/** The training-only golden run (25 iterations, seed 5). */
inline sim::SimResult
runTrainingOnly(sim::TraceSink *sink = nullptr)
{
    auto cfg = smallConfig();
    workload::Compiler compiler(cfg);
    sim::Accelerator accel(cfg);
    accel.installInference(compiler.compileInference(tinyRnn()));
    accel.installTraining(compiler.compileTraining(tinyRnn(), 16));
    if (sink)
        accel.setTraceSink(sink);
    sim::RunSpec spec;
    spec.arrival_rate_per_s = 0.0;
    spec.measure_iterations = 25;
    spec.seed = 5;
    return accel.run(spec);
}

} // namespace testutil
} // namespace equinox

#endif // EQUINOX_TESTS_SIM_DIGEST_HH
