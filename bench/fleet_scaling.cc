/**
 * @file
 * Fleet-scale serving characterisation: hierarchical sharded routing
 * and SLO autoscaling from 8 to 1024 replicas.
 *
 * Four sections:
 *   1. hierarchical scale-out: replicas {8, 64, 256, 1024} with
 *      sqrt-ish shard fan-out at a fixed fraction of aggregate
 *      capacity (the headline scaling table; the 64-replica linear
 *      scaling efficiency lands in notes.scaling_efficiency_64),
 *   2. the 1024-replica fleet under the flash-crowd traffic mix --
 *      the full hierarchy, thinning and per-shard merge at fleet
 *      scale (wall seconds in notes.flash_crowd_1024_wall_s),
 *   3. the SLO autoscaler tracking a diurnal cycle against a 2x
 *      steady-state p99 target (notes.slo_p99_ratio,
 *      notes.over_provision_frac),
 *   4. the built-in traffic mixes on a fixed fleet.
 *
 * The chip design point here is deliberately small (the event-kernel
 * micro design, not Equinox_500us): the subject under test is the
 * routing hierarchy, the autoscaler, and the merge layers, and a
 * 1024-replica point must fit a single-core wall budget.
 */

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "cluster/cluster.hh"
#include "cluster/sweep.hh"
#include "core/equinox.hh"
#include "fault/traffic_mix.hh"

using namespace equinox;

namespace
{

/** Small design point: 1024 replica sims must fit one core. */
sim::AcceleratorConfig
fleetChip()
{
    sim::AcceleratorConfig cfg;
    cfg.name = "fleet_micro";
    cfg.n = 8;
    cfg.m = 2;
    cfg.w = 2;
    cfg.frequency_hz = units::MHz(100);
    cfg.simd_lanes = 256;
    return cfg;
}

/**
 * Big enough that the fleet's aggregate request rate stays well below
 * the candidate stream's one-per-tick ceiling even at 1024 replicas
 * (service ~4k cycles, so 1024 replicas at load 0.7 offer ~0.17
 * candidates/tick); small enough that a 1024-replica point is a
 * fraction of a second of wall time.
 */
workload::DnnModel
fleetModel()
{
    workload::DnnModel model;
    model.name = "fleet_rnn";
    model.kind = workload::DnnModel::Kind::Rnn;
    model.rnn.hidden = 256;
    model.rnn.steps = 8;
    model.rnn.gate_groups = {2};
    model.rnn.simd_passes = 4.0;
    return model;
}

/**
 * Cluster::run splits warmup/measure quotas evenly across replicas, so
 * the totals must scale with the fleet: a fixed total at 1024 replicas
 * would leave each replica measuring a single request over a degenerate
 * window. 4 warmup + 48 measured per replica at every size keeps the
 * per-replica measurement identical, which is what makes the scaling
 * efficiency column comparable across fleet sizes.
 */
core::ExperimentOptions
fleetOptions(std::size_t jobs, std::size_t replicas)
{
    core::ExperimentOptions opts;
    opts.model = fleetModel();
    opts.train_model = fleetModel();
    opts.train_batch = 16;
    opts.warmup_requests = 4 * replicas;
    opts.measure_requests = 48 * replicas;
    opts.seed = 21;
    // The router routes the candidate stream over the whole
    // horizon for every replica: 8 ms of simulated time fits ~110
    // arrivals per replica at load 0.7, enough to fill the measured
    // quota with queueing headroom.
    opts.max_sim_s = 0.008;
    opts.jobs = jobs;
    return opts;
}

double
wallSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** recordClusterPoint + export under "fleet.<label>". */
void
recordFleet(bench::Harness &harness, const std::string &label,
            const std::vector<cluster::ClusterPointResult> &points)
{
    for (const auto &r : points)
        harness.recordClusterPoint(r);
    core::addFleetSweep(harness.metrics(), label, points);
}

} // namespace

int
main(int argc, char **argv)
{
    setQuietLogging(true);
    bench::Harness harness(argc, argv, "fleet_scaling", "Fleet scale-out",
                           "hierarchical sharded routing and SLO "
                           "autoscaling from 8 to 1024 replicas");
    const std::size_t jobs = harness.jobs();

    auto cfg = fleetChip();
    auto compiled = core::compileWorkload(cfg, fleetOptions(jobs, 8));

    // ------------------------------------------------------------------
    bench::section("1. hierarchical scale-out: replicas x shards at "
                   "load 0.7 of aggregate capacity");
    {
        stats::Table table({"replicas", "shards", "agg infer (TOp/s)",
                            "efficiency", "p99 (ms)", "shard reroutes"});
        std::vector<cluster::ClusterPointResult> points;
        double base_tops = 0.0;
        for (std::size_t replicas : {8, 64, 256, 1024}) {
            cluster::ClusterSpec spec;
            spec.replicas = replicas;
            // Round-robin at both tiers for the scaling headline: it
            // spreads the saturated candidate stream evenly, so the
            // table isolates hierarchy overhead from policy skew (JSQ
            // under saturation concentrates on low indices -- equally
            // so through the flat router; see the differential suite).
            spec.policy = cluster::RoutingPolicy::RoundRobin;
            spec.fleet.shard_policy = cluster::RoutingPolicy::RoundRobin;
            spec.fleet.shards = std::max<std::size_t>(1, replicas / 32);
            spec.train_replicas = std::max<std::size_t>(1, replicas / 8);
            cluster::Cluster fleet(cfg, spec);
            auto opts = fleetOptions(jobs, replicas);
            auto t0 = std::chrono::steady_clock::now();
            auto r = fleet.run(0.7, opts, compiled);
            double wall = wallSince(t0);
            if (replicas == 8)
                base_tops = r.aggregate_inference_tops;
            // Linear-scaling efficiency vs the 8-replica baseline.
            double efficiency =
                base_tops > 0.0
                    ? r.aggregate_inference_tops /
                          (base_tops *
                           (static_cast<double>(replicas) / 8.0))
                    : 0.0;
            table.addRow({std::to_string(replicas),
                          std::to_string(spec.fleet.shards),
                          bench::num(r.aggregate_inference_tops, 3),
                          bench::num(efficiency, 3) + "x",
                          bench::num(r.p99_latency_s * 1e3, 3),
                          std::to_string(r.shard_rerouted)});
            if (replicas == 64)
                harness.note("scaling_efficiency_64", efficiency);
            if (replicas == 1024) {
                harness.note("scaleout_1024_wall_s", wall);
                harness.note("scaleout_1024_completed",
                             r.completed_requests);
            }
            points.push_back(std::move(r));
        }
        table.print(std::cout);
        std::printf("two-level routing keeps aggregate throughput "
                    "near-linear to 1024 replicas\n");
        recordFleet(harness, "scaleout", points);
    }

    // ------------------------------------------------------------------
    bench::section("2. 1024 replicas under the flash-crowd traffic "
                   "mix (32 shards)");
    {
        auto opts = fleetOptions(jobs, 1024);
        cluster::ClusterSpec spec;
        spec.replicas = 1024;
        spec.policy = cluster::RoutingPolicy::JoinShortestQueue;
        spec.fleet.shards = 32;
        spec.fleet.traffic =
            fault::trafficScenario("flash_crowd", opts.max_sim_s);
        cluster::Cluster fleet(cfg, spec);
        auto t0 = std::chrono::steady_clock::now();
        auto r = fleet.run(0.7, opts, compiled);
        double wall = wallSince(t0);
        std::printf("%llu candidates routed, %llu completed, p99 %.3f "
                    "ms, %llu shard-level reroutes\n",
                    static_cast<unsigned long long>(
                        r.generated_candidates),
                    static_cast<unsigned long long>(
                        r.completed_requests),
                    r.p99_latency_s * 1e3,
                    static_cast<unsigned long long>(r.shard_rerouted));
        harness.note("flash_crowd_1024_wall_s", wall);
        harness.note("flash_crowd_1024_completed", r.completed_requests);
        recordFleet(harness, "flash_crowd_1024", {r});
    }

    // ------------------------------------------------------------------
    bench::section("3. SLO autoscaler: diurnal cycle against a 2x "
                   "steady-state p99 target (32 replicas, 4 shards)");
    {
        // Reference: the fixed fleet at the steady base load.
        auto slo_opts = fleetOptions(jobs, 32);
        cluster::ClusterSpec fixed;
        fixed.replicas = 32;
        fixed.policy = cluster::RoutingPolicy::JoinShortestQueue;
        fixed.fleet.shards = 4;
        auto steady =
            cluster::Cluster(cfg, fixed).run(0.3, slo_opts, compiled);
        const double target_p99_s = 2.0 * steady.p99_latency_s;

        cluster::ClusterSpec scaled = fixed;
        scaled.fleet.traffic =
            fault::trafficScenario("diurnal", slo_opts.max_sim_s);
        auto &as = scaled.fleet.autoscaler;
        as.enabled = true;
        as.min_replicas = 4;
        as.initial_replicas = 12;
        as.target_p99_s = target_p99_s;
        // Conservative packing: active replicas run at <= 0.6
        // utilization, so the autoscaled tail stays near the
        // steady-state reference instead of the saturation knee.
        as.target_utilization = 0.6;
        as.decision_interval_s = 5e-5;
        as.cooldown_s = 1e-4;
        as.warmup_s = 2e-5;
        auto r =
            cluster::Cluster(cfg, scaled).run(0.3, slo_opts, compiled);

        const auto &st = r.autoscaler;
        double ratio = target_p99_s > 0.0
                           ? r.p99_latency_s / target_p99_s
                           : 0.0;
        stats::Table table({"metric", "value"});
        table.addRow({"steady p99 (ms)",
                      bench::num(steady.p99_latency_s * 1e3, 3)});
        table.addRow(
            {"target p99 (ms)", bench::num(target_p99_s * 1e3, 3)});
        table.addRow(
            {"autoscaled p99 (ms)",
             bench::num(r.p99_latency_s * 1e3, 3)});
        table.addRow({"p99 / target", bench::num(ratio, 3)});
        table.addRow({"scale ups / downs",
                      std::to_string(st.scale_ups) + " / " +
                          std::to_string(st.scale_downs)});
        table.addRow({"active envelope",
                      std::to_string(st.min_active) + " .. " +
                          std::to_string(st.max_active)});
        table.addRow({"over-provision frac",
                      bench::num(st.over_provision_frac, 4)});
        table.print(std::cout);
        std::printf("%s: p99 %s the 2x-steady target with %.1f%% "
                    "over-provisioned replica-ticks\n",
                    ratio <= 1.0 && st.over_provision_frac <= 0.15
                        ? "SLO met"
                        : "SLO MISSED",
                    ratio <= 1.0 ? "inside" : "OUTSIDE",
                    st.over_provision_frac * 100.0);
        harness.note("slo_target_p99_ms", target_p99_s * 1e3);
        harness.note("slo_p99_ratio", ratio);
        harness.note("over_provision_frac", st.over_provision_frac);
        harness.note("autoscaler_scale_ups", st.scale_ups);
        harness.note("autoscaler_scale_downs", st.scale_downs);
        recordFleet(harness, "slo_autoscaler", {r});
    }

    // ------------------------------------------------------------------
    bench::section("4. traffic mixes on a fixed fleet (16 replicas, "
                   "4 shards, load 0.5)");
    {
        stats::Table table({"mix", "generated", "completed", "p99 (ms)",
                            "shed"});
        std::vector<cluster::ClusterPointResult> points;
        auto opts = fleetOptions(jobs, 16);
        for (const auto &name : fault::trafficScenarioNames()) {
            cluster::ClusterSpec spec;
            spec.replicas = 16;
            spec.policy = cluster::RoutingPolicy::LatencyAware;
            spec.fleet.shards = 4;
            spec.fleet.traffic =
                fault::trafficScenario(name, opts.max_sim_s);
            auto r =
                cluster::Cluster(cfg, spec).run(0.5, opts, compiled);
            table.addRow({name,
                          std::to_string(r.generated_candidates),
                          std::to_string(r.completed_requests),
                          bench::num(r.p99_latency_s * 1e3, 3),
                          std::to_string(r.router_shed)});
            points.push_back(std::move(r));
        }
        table.print(std::cout);
        std::printf("mixes reshape the same base load: diurnal swells, "
                    "crowd spikes, tenant blends\n");
        recordFleet(harness, "traffic_mixes", points);
    }

    harness.finish();
    return 0;
}
