#include "workloads.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

#include "checks.hh"
#include "cluster/cluster.hh"
#include "cluster/sweep.hh"
#include "cluster_replay.hh"
#include "core/experiment.hh"
#include "core/presets.hh"
#include "fault/chaos_plan.hh"
#include "nn/datasets.hh"
#include "nn/trainer.hh"
#include "obs/metrics_snapshot.hh"
#include "sim/result_digest.hh"
#include "timed_gemm.hh"

namespace perfbench
{

using namespace equinox;

PassResult
Workload::pass(Tracer *tracer)
{
    PassResult out;
    auto t0 = Clock::now();
    run(tracer);
    out.wall_s = secondsSince(t0);
    collect(out);
    return out;
}

namespace
{

/** The Equinox_500us hbfp8 chip every simulator workload runs on. */
sim::AcceleratorConfig
presetChip(Tracer &tracer)
{
    ScopedSpan span(&tracer, "core.setup.preset");
    return core::presetConfig(core::Preset::Us500, arith::Encoding::Hbfp8);
}

std::string
pointName(const char *prefix, double load)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%s@%.1f", prefix, load);
    return buf;
}

// ---------------------------------------------------------------------
// chip_colocated: the paper's headline scenario. The event kernel and
// blocks do nearly all the work; the inference-only point exposes a
// kernel change that only pays off with training resident.

class ChipColocated : public Workload
{
  public:
    void
    setup(std::uint64_t seed, Tracer &tracer) override
    {
        cfg_ = presetChip(tracer);
        // Figure 7's warm-up and 80x its measured requests: a pass then
        // lasts over a second, long enough to average out host
        // scheduling noise that a 20 ms pass would sample.
        train_opts_.train_model = workload::DnnModel::lstm2048();
        train_opts_.warmup_requests = 300;
        train_opts_.measure_requests = 200000;
        train_opts_.seed = seed;
        inf_opts_ = train_opts_;
        inf_opts_.train_model.reset();
        ScopedSpan span(&tracer, "workload.compile");
        train_wl_ = core::compileWorkload(cfg_, train_opts_);
        inf_wl_ = core::compileWorkload(cfg_, inf_opts_);
    }

    std::vector<std::string>
    dominantLayers() const override
    {
        return {"sim.run"};
    }

  protected:
    void
    run(Tracer *tracer) override
    {
        results_.clear();
        for (double load : kTrainLoads)
            point(tracer, load, train_opts_, train_wl_);
        point(tracer, kInferenceLoad, inf_opts_, inf_wl_);
        ScopedSpan span(tracer, "obs.snapshot");
        obs::MetricsSnapshot snap;
        core::addLoadSweep(snap, "chip_colocated", results_);
        snap.toJson();
    }

    void
    collect(PassResult &out) const override
    {
        for (std::size_t i = 0; i < results_.size(); ++i) {
            const core::LoadPointResult &r = results_[i];
            OpResult op;
            op.name = pointName(i < kTrainLoads.size() ? "train" : "infer",
                                r.load);
            op.digest = sim::resultDigest(r.sim);
            op.error = checkReplica(r.sim);
            if (op.error.empty() && r.sim.completed_requests == 0)
                op.error = "no request completed";
            out.ops.push_back(std::move(op));
            out.completed_requests += r.sim.completed_requests;
            out.events += r.sim.events_dispatched;
        }
    }

  private:
    static constexpr std::array<double, 3> kTrainLoads{0.3, 0.6, 0.9};
    static constexpr double kInferenceLoad = 0.9;

    void
    point(Tracer *tracer, double load, const core::ExperimentOptions &opts,
          const core::CompiledWorkload &wl)
    {
        {
            ScopedSpan span(tracer, "sim.run");
            results_.push_back(core::runAtLoad(cfg_, load, opts, wl));
        }
        if (tracer) {
            const sim::SimResult &s = results_.back().sim;
            tracer->count("sim.events",
                          static_cast<double>(s.events_dispatched));
            tracer->count("sim.events_inlined",
                          static_cast<double>(s.events_inlined));
            tracer->count("sim.sim_s", s.sim_seconds);
        }
    }

    sim::AcceleratorConfig cfg_;
    core::ExperimentOptions train_opts_;
    core::ExperimentOptions inf_opts_;
    core::CompiledWorkload train_wl_;
    core::CompiledWorkload inf_wl_;
    std::vector<core::LoadPointResult> results_;
};

// ---------------------------------------------------------------------
// Cluster workloads: each operation is one Cluster::run point (or its
// stage-by-stage replay when traced).

class ClusterWorkload : public Workload
{
  protected:
    struct Point
    {
        std::string name;
        cluster::ClusterSpec spec;
    };

    void
    run(Tracer *tracer) override
    {
        results_.clear();
        for (const Point &p : points_) {
            if (tracer) {
                results_.push_back(
                    replayCluster(cfg_, p.spec, load_, opts_, wl_, *tracer));
            } else {
                cluster::Cluster fleet(cfg_, p.spec);
                results_.push_back(fleet.run(load_, opts_, wl_));
            }
        }
        ScopedSpan span(tracer, "obs.snapshot");
        obs::MetricsSnapshot snap;
        core::addClusterSweep(snap, "points", results_);
        snap.toJson();
    }

    void
    collect(PassResult &out) const override
    {
        for (std::size_t i = 0; i < results_.size(); ++i) {
            const cluster::ClusterPointResult &r = results_[i];
            OpResult op;
            op.name = points_[i].name;
            op.digest = clusterDigest(r);
            op.error = checkCluster(r);
            if (op.error.empty() && r.completed_requests == 0)
                op.error = "no request completed";
            out.ops.push_back(std::move(op));
            out.completed_requests += r.completed_requests;
            for (const auto &rep : r.per_replica)
                out.events += rep.sim.events_dispatched;
        }
    }

    sim::AcceleratorConfig cfg_;
    core::ExperimentOptions opts_;
    core::CompiledWorkload wl_;
    double load_ = 0.0;
    std::vector<Point> points_;

  private:
    std::vector<cluster::ClusterPointResult> results_;
};

// fleet_route: the router front-end does most of the work, because it
// routes the whole horizon while the replicas stop once their measured
// windows close. cluster_scaling's options at a quarter of its horizon:
// routing stays over 80% of a pass, and a pass stays short enough for
// a run to take the median of several.
class FleetRoute : public ClusterWorkload
{
  public:
    void
    setup(std::uint64_t seed, Tracer &tracer) override
    {
        cfg_ = presetChip(tracer);
        opts_.train_model = workload::DnnModel::lstm2048();
        opts_.warmup_requests = 200;
        opts_.measure_requests = 1200;
        opts_.min_measure_s = 0.05;
        opts_.max_sim_s = 0.5;
        opts_.seed = seed;
        load_ = 0.7;
        for (auto policy : {cluster::RoutingPolicy::LatencyAware,
                            cluster::RoutingPolicy::JoinShortestQueue}) {
            Point p;
            p.name = cluster::routingPolicyName(policy);
            p.spec.replicas = 8;
            p.spec.policy = policy;
            points_.push_back(std::move(p));
        }
        ScopedSpan span(&tracer, "workload.compile");
        wl_ = core::compileWorkload(cfg_, opts_);
    }

    std::vector<std::string>
    dominantLayers() const override
    {
        return {"cluster.gen", "cluster.route"};
    }
};

// overload_chaos: bench/overload_resilience's acceptance point. Both
// specs route through the ControlPlane (priority tags alone enable
// it); the second adds admission, retries, hedges and breakers.
class OverloadChaos : public ClusterWorkload
{
  public:
    void
    setup(std::uint64_t seed, Tracer &tracer) override
    {
        cfg_ = presetChip(tracer);
        constexpr double kHorizonS = 0.25;
        opts_.train_model = workload::DnnModel::lstm2048();
        opts_.warmup_requests = 100;
        opts_.measure_requests = 1u << 30;
        opts_.min_measure_s = kHorizonS;
        opts_.max_sim_s = kHorizonS;
        opts_.seed = seed;
        load_ = 0.8;

        const double f = cfg_.frequency_hz;
        cluster::ResilienceSpec shed_only;
        shed_only.admission.policy = cluster::AdmissionPolicy::None;
        shed_only.admission.background_fraction = 0.3;
        shed_only.admission.deadline_cycles = static_cast<Tick>(8e-3 * f);

        cluster::ResilienceSpec full = shed_only;
        full.admission.policy = cluster::AdmissionPolicy::PriorityShed;
        full.admission.background_watermark = 2.0;
        full.admission.inference_watermark = 1e6;
        full.retry.enabled = true;
        full.retry.max_attempts = 6;
        full.retry.max_budget = 65536.0;
        full.retry.budget_ratio = 0.2;
        full.retry.base_backoff_cycles = static_cast<Tick>(1e-3 * f);
        full.retry.backoff_multiplier = 2.0;
        full.retry.jitter_frac = 0.25;
        full.hedge.enabled = true;
        full.hedge.latency_factor = 1.0;
        full.hedge.window = 256;
        full.hedge.min_samples = 64;
        full.hedge.max_hedge_fraction = 0.01;
        full.breaker.enabled = true;
        full.breaker.trip_failures = 4;
        full.breaker.probe_interval_cycles = static_cast<Tick>(0.2e-3 * f);
        full.breaker.cooldown_cycles = static_cast<Tick>(0.5e-3 * f);
        full.breaker.halfopen_probes = 2;
        full.shed_training_under_overload = true;
        full.training_shed_backlog = 4.0;

        for (const auto &[name, rs] :
             {std::pair{"shed_only", shed_only},
              std::pair{"control_plane", full}}) {
            Point p;
            p.name = name;
            p.spec.replicas = 4;
            p.spec.policy = cluster::RoutingPolicy::JoinShortestQueue;
            p.spec.train_replicas = 2;
            p.spec.resilience = rs;
            p.spec.chaos =
                fault::chaosScenario("flash_crowd_outage", kHorizonS, seed);
            points_.push_back(std::move(p));
        }
        ScopedSpan span(&tracer, "workload.compile");
        wl_ = core::compileWorkload(cfg_, opts_);
    }

    std::vector<std::string>
    dominantLayers() const override
    {
        return {"cluster.control_plane"};
    }
};

// ---------------------------------------------------------------------
// hbfp_train: Figure 2(a)'s classifier, the only layer the simulator
// never calls; GEMM is nearly all of it and no event is dispatched.

class HbfpTrain : public Workload
{
  public:
    /**
     * hbfp8's final validation error may exceed fp32's by this factor;
     * fp32's is floored at kErrorFloor so a seed on which fp32 makes no
     * error does not demand a perfect hbfp8 run. Over seeds 1-40 the
     * worst ratio is 1.17.
     */
    static constexpr double kMaxErrorRatio = 1.5;
    static constexpr double kErrorFloor = 0.01;

    void
    setup(std::uint64_t seed, Tracer &tracer) override
    {
        {
            ScopedSpan span(&tracer, "nn.dataset");
            data_ = std::make_unique<nn::ClusterDataset>(8, 24, 2048, 1024,
                                                         0.35, seed);
        }
        // fig2_convergence's task (a) with half its epochs and half its
        // learning rate: at 0.08, 10 epochs diverge on some seeds.
        cfg_.epochs = 10;
        cfg_.batch_size = 64;
        cfg_.hidden_dims = {96, 48};
        cfg_.sgd.learning_rate = 0.04;
        cfg_.sgd.decay_epochs = {6, 8};
        cfg_.init_seed = seed;
        for (auto enc : {arith::Encoding::Hbfp8, arith::Encoding::Fp32})
            engines_.push_back(arith::makeGemmEngine(enc));
    }

    std::vector<std::string>
    dominantLayers() const override
    {
        return {"arith.gemm.hbfp8", "arith.gemm.fp32"};
    }

  protected:
    void
    run(Tracer *tracer) override
    {
        histories_.clear();
        for (const auto &engine : engines_) {
            if (tracer) {
                TimedGemm timed(*engine, *tracer);
                ScopedSpan span(tracer, "nn.train");
                histories_.push_back(
                    nn::trainClassifier(*data_, timed, cfg_));
            } else {
                histories_.push_back(
                    nn::trainClassifier(*data_, *engine, cfg_));
            }
        }
    }

    void
    collect(PassResult &out) const override
    {
        const std::size_t batches =
            (data_->trainSize() + cfg_.batch_size - 1) / cfg_.batch_size;
        for (std::size_t i = 0; i < histories_.size(); ++i) {
            const nn::TrainHistory &h = histories_[i];
            OpResult op;
            op.name = engines_[i]->name();
            op.digest = historyDigest(h);
            if (h.size() != cfg_.epochs) {
                op.error = "history has " + std::to_string(h.size()) +
                           " epochs";
            } else if (!std::isfinite(h.back().valid_loss)) {
                op.error = "validation loss is not finite";
            }
            out.ops.push_back(std::move(op));
            out.train_steps += cfg_.epochs * batches;
        }
        // hbfp8 must track fp32 (the paper's Figure 2 claim).
        if (!out.ops[0].error.empty() || !out.ops[1].error.empty())
            return;
        double hbfp = histories_[0].back().valid_error;
        double fp32 = histories_[1].back().valid_error;
        if (hbfp > kMaxErrorRatio * std::max(fp32, kErrorFloor)) {
            char buf[96];
            std::snprintf(buf, sizeof buf,
                          "final error %.4f exceeds %.2f x fp32's %.4f",
                          hbfp, kMaxErrorRatio, fp32);
            out.ops[0].error = buf;
        }
    }

  private:
    std::unique_ptr<nn::ClusterDataset> data_;
    nn::TrainConfig cfg_;
    std::vector<std::unique_ptr<arith::GemmEngine>> engines_;
    std::vector<nn::TrainHistory> histories_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "chip_colocated")
        return std::make_unique<ChipColocated>();
    if (name == "fleet_route")
        return std::make_unique<FleetRoute>();
    if (name == "overload_chaos")
        return std::make_unique<OverloadChaos>();
    if (name == "hbfp_train")
        return std::make_unique<HbfpTrain>();
    return nullptr;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{
        "chip_colocated", "fleet_route", "overload_chaos", "hbfp_train"};
    return names;
}

} // namespace perfbench
