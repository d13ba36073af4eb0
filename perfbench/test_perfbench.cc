/**
 * @file
 * The benchmark's own tests: its instruments must not change what they
 * measure.
 */

#include <gtest/gtest.h>

#include "checks.hh"
#include "cluster/cluster.hh"
#include "cluster_replay.hh"
#include "common/logging.hh"
#include "core/presets.hh"
#include "fault/chaos_plan.hh"
#include "nn/datasets.hh"
#include "sim/result_digest.hh"
#include "timed_gemm.hh"
#include "workloads.hh"

using namespace equinox;
using namespace perfbench;

TEST(TimedGemm, TrainHistoryIsIdenticalWithAndWithoutIt)
{
    nn::ClusterDataset data(4, 12, 256, 128, 0.35, 7);
    nn::TrainConfig cfg;
    cfg.epochs = 2;
    cfg.hidden_dims = {16};
    for (auto enc : {arith::Encoding::Hbfp8, arith::Encoding::Fp32}) {
        auto engine = arith::makeGemmEngine(enc);
        Tracer tracer;
        TimedGemm timed(*engine, tracer);
        auto plain = nn::trainClassifier(data, *engine, cfg);
        auto traced = nn::trainClassifier(data, timed, cfg);
        EXPECT_EQ(historyDigest(plain), historyDigest(traced))
            << engine->name();
        const std::string layer = gemmLayer(enc);
        auto t = tracer.totals(0).at(layer);
        EXPECT_GT(t.calls, 0u);
        EXPECT_GT(tracer.counter(0, layer + ".macs"), 0.0);
    }
}

class ClusterReplay : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setQuietLogging(true);
        cfg = core::presetConfig(core::Preset::Us500);
        opts.train_model = workload::DnnModel::lstm2048();
        opts.warmup_requests = 50;
        opts.measure_requests = 400;
        opts.min_measure_s = 0.02;
        opts.max_sim_s = 0.1;
        opts.seed = 3;
        compiled = core::compileWorkload(cfg, opts);
    }

    void
    expectReplayMatches(const cluster::ClusterSpec &spec, double load)
    {
        auto want = cluster::Cluster(cfg, spec).run(load, opts, compiled);
        Tracer tracer;
        auto got = replayCluster(cfg, spec, load, opts, compiled, tracer);
        ASSERT_EQ(got.per_replica.size(), want.per_replica.size());
        for (std::size_t r = 0; r < want.per_replica.size(); ++r) {
            EXPECT_EQ(got.per_replica[r].assigned_candidates,
                      want.per_replica[r].assigned_candidates);
            EXPECT_EQ(sim::resultDigest(got.per_replica[r].sim),
                      sim::resultDigest(want.per_replica[r].sim));
        }
        EXPECT_EQ(clusterDigest(got), clusterDigest(want));
        EXPECT_EQ(checkCluster(got), "");
        EXPECT_EQ(checkCluster(want), "");
        EXPECT_GT(tracer.totals(0).at("sim.run").calls, 0u);
    }

    sim::AcceleratorConfig cfg;
    core::ExperimentOptions opts;
    core::CompiledWorkload compiled;
};

TEST_F(ClusterReplay, FlatRouterReproducesClusterRun)
{
    for (auto policy : {cluster::RoutingPolicy::LatencyAware,
                        cluster::RoutingPolicy::JoinShortestQueue}) {
        cluster::ClusterSpec spec;
        spec.replicas = 4;
        spec.policy = policy;
        spec.train_replicas = 2;
        expectReplayMatches(spec, 0.7);
    }
}

TEST_F(ClusterReplay, ControlPlaneUnderChaosReproducesClusterRun)
{
    cluster::ClusterSpec spec;
    spec.replicas = 4;
    spec.policy = cluster::RoutingPolicy::JoinShortestQueue;
    spec.train_replicas = 2;
    spec.resilience.admission.background_fraction = 0.3;
    spec.resilience.retry.enabled = true;
    spec.resilience.hedge.enabled = true;
    spec.resilience.hedge.latency_factor = 1.0;
    spec.resilience.breaker.enabled = true;
    spec.resilience.shed_training_under_overload = true;
    spec.chaos = fault::chaosScenario("flash_crowd_outage", opts.max_sim_s, 5);
    expectReplayMatches(spec, 0.8);
}

TEST(Workloads, TracedPassesReproduceUntracedOutputs)
{
    setQuietLogging(true);
    for (const auto &name : workloadNames()) {
        auto wl = makeWorkload(name);
        Tracer tracer;
        wl->setup(2, tracer);
        PassResult plain = wl->pass(nullptr);
        tracer.startPass();
        PassResult traced = wl->pass(&tracer);
        ASSERT_EQ(plain.ops.size(), traced.ops.size()) << name;
        for (std::size_t i = 0; i < plain.ops.size(); ++i) {
            EXPECT_EQ(plain.ops[i].error, "") << name;
            EXPECT_EQ(traced.ops[i].error, "") << name;
            EXPECT_EQ(plain.ops[i].digest, traced.ops[i].digest)
                << name << " " << plain.ops[i].name;
        }
        double dominant = 0.0;
        auto totals = tracer.totals(1);
        for (const auto &l : wl->dominantLayers())
            dominant += totals[l].busy_s;
        EXPECT_GT(dominant, 0.0) << name;
    }
}

TEST(Tracer, SelfTimeExcludesChildren)
{
    Tracer tracer;
    {
        ScopedSpan outer(&tracer, "outer");
        ScopedSpan inner(&tracer, "inner");
    }
    auto t = tracer.totals(0);
    EXPECT_EQ(t.at("outer").calls, 1u);
    EXPECT_NEAR(t.at("outer").self_s,
                t.at("outer").busy_s - t.at("inner").busy_s, 1e-12);
    EXPECT_EQ(tracer.spans()[1].parent, 0);
}

TEST(CallStats, TailLeavesTenSamplesBeyondIt)
{
    std::vector<double> d(1000);
    for (std::size_t i = 0; i < d.size(); ++i)
        d[i] = static_cast<double>(i);
    CallStats cs = callStats(d);
    EXPECT_EQ(cs.calls, 1000u);
    EXPECT_DOUBLE_EQ(cs.tail_q, 0.99);
    EXPECT_NEAR(cs.p50_s, 499.5, 1e-9);
    EXPECT_DOUBLE_EQ(callStats({1.0, 2.0, 3.0}).tail_q, 0.5);
    EXPECT_DOUBLE_EQ(callStats(std::vector<double>(100, 1.0)).tail_q, 0.9);
}
