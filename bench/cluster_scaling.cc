/**
 * @file
 * Cluster scale-out characterisation of the Equinox_500us design point:
 * how aggregate serving throughput, tail latency, and the piggybacked
 * training throughput behave as the fleet grows from one replica to
 * eight, under each routing policy.
 *
 * Three sweeps:
 *   1. replicas {1, 2, 4, 8} x routing policy at a fixed fraction of
 *      aggregate capacity (the headline scaling table),
 *   2. availability and re-routing with one replica dark for part of
 *      the run, per policy,
 *   3. the training coordinator concentrating training on the
 *      least-loaded replicas as train_replicas shrinks.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "cluster/cluster.hh"
#include "cluster/sweep.hh"
#include "core/equinox.hh"

using namespace equinox;

namespace
{

core::ExperimentOptions
baseOptions(std::size_t jobs)
{
    core::ExperimentOptions opts;
    opts.train_model = workload::DnnModel::lstm2048();
    opts.warmup_requests = 200;
    opts.measure_requests = 1200;
    opts.min_measure_s = 0.05;
    // The router routes every candidate of the whole horizon (see
    // Cluster::run), so size it to what the longest point needs
    // instead of the single-chip default.
    opts.max_sim_s = 2.0;
    opts.jobs = jobs;
    return opts;
}

/** "0,2,3" -- the replicas the coordinator placed training on. */
std::string
trainedReplicas(const cluster::ClusterPointResult &r)
{
    std::string out;
    for (const auto &rep : r.per_replica) {
        if (!rep.training)
            continue;
        if (!out.empty())
            out += ",";
        out += std::to_string(rep.replica);
    }
    return out.empty() ? "-" : out;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuietLogging(true);
    bench::Harness harness(argc, argv, "cluster_scaling",
                           "Cluster scale-out",
                           "multi-replica serving: throughput scaling per "
                           "routing policy, outage availability, and "
                           "fleet-level training placement");
    const std::size_t jobs = harness.jobs();

    auto cfg = core::presetConfig(core::Preset::Us500,
                                  arith::Encoding::Hbfp8, jobs);
    auto opts = baseOptions(jobs);
    auto compiled = core::compileWorkload(cfg, opts);
    // Most candidate ticks the arrival feed held at once, over every
    // point: bounded by what the replicas read when they pull, and by
    // the horizon when the training placement routes it all first.
    std::uint64_t feed_high_water = 0;
    auto noteFeed = [&](const cluster::ClusterPointResult &r) {
        feed_high_water =
            std::max(feed_high_water, r.feed_buffer_high_water);
    };

    // ------------------------------------------------------------------
    bench::section("1. scale-out: replicas x routing policy at load "
                   "0.7 of aggregate capacity");
    {
        stats::Table table({"replicas", "policy", "agg infer (TOp/s)",
                            "speedup", "train (TOp/s)", "p50 (ms)",
                            "p99 (ms)", "completed"});
        std::vector<cluster::ClusterPointResult> points;
        for (auto policy : cluster::allRoutingPolicies()) {
            double base_tops = 0.0;
            for (std::size_t replicas : {1, 2, 4, 8}) {
                cluster::ClusterSpec cspec;
                cspec.replicas = replicas;
                cspec.policy = policy;
                cluster::Cluster fleet(cfg, cspec);
                auto r = fleet.run(0.7, opts, compiled);
                noteFeed(r);
                if (replicas == 1)
                    base_tops = r.aggregate_inference_tops;
                double speedup = base_tops > 0.0
                                     ? r.aggregate_inference_tops /
                                           base_tops
                                     : 0.0;
                table.addRow(
                    {std::to_string(replicas),
                     cluster::routingPolicyName(policy),
                     bench::num(r.aggregate_inference_tops, 2),
                     bench::num(speedup, 2) + "x",
                     bench::num(r.aggregate_training_tops, 2),
                     bench::num(r.p50_latency_s * 1e3, 3),
                     bench::num(r.p99_latency_s * 1e3, 3),
                     std::to_string(r.completed_requests)});
                points.push_back(std::move(r));
            }
        }
        table.print(std::cout);
        std::printf("independent replicas scale aggregate throughput "
                    "near-linearly; the merged tail stays flat\n");
        harness.recordClusterSweep("scaleout", points);
    }

    // ------------------------------------------------------------------
    bench::section("2. availability: replica 1 of 4 dark mid-run, "
                   "per routing policy");
    {
        stats::Table table({"policy", "avail", "rerouted", "shed",
                            "p99 (ms)", "completed", "committed train"});
        std::vector<cluster::ClusterPointResult> points;
        for (auto policy : cluster::allRoutingPolicies()) {
            cluster::ClusterSpec cspec;
            cspec.replicas = 4;
            cspec.policy = policy;
            cspec.outages.push_back({1, 0.05, 0.12});
            cluster::Cluster fleet(cfg, cspec);
            auto r = fleet.run(0.7, opts, compiled);
            noteFeed(r);
            table.addRow(
                {cluster::routingPolicyName(policy),
                 bench::num(r.availability, 4),
                 std::to_string(r.rerouted),
                 std::to_string(r.router_shed),
                 bench::num(r.p99_latency_s * 1e3, 3),
                 std::to_string(r.completed_requests),
                 std::to_string(r.committed_training_iterations)});
            points.push_back(std::move(r));
        }
        table.print(std::cout);
        std::printf("the router re-routes around the dark replica: "
                    "nothing is shed while any replica is alive\n");
        harness.recordClusterSweep("outage", points);
    }

    // ------------------------------------------------------------------
    bench::section("3. training coordinator: concentrating training on "
                   "the least-loaded replicas (4 replicas, JSQ)");
    {
        stats::Table table({"train replicas", "placed on",
                            "train (TOp/s)", "committed", "p99 (ms)"});
        std::vector<cluster::ClusterPointResult> points;
        for (std::size_t train : {0, 1, 2, 4}) {
            cluster::ClusterSpec cspec;
            cspec.replicas = 4;
            cspec.policy = cluster::RoutingPolicy::JoinShortestQueue;
            cspec.train_replicas = train;
            cluster::Cluster fleet(cfg, cspec);
            auto r = fleet.run(0.7, opts, compiled);
            noteFeed(r);
            table.addRow(
                {train == 0 ? "all" : std::to_string(train),
                 trainedReplicas(r),
                 bench::num(r.aggregate_training_tops, 2),
                 std::to_string(r.committed_training_iterations),
                 bench::num(r.p99_latency_s * 1e3, 3)});
            points.push_back(std::move(r));
        }
        table.print(std::cout);
        std::printf("training throughput recovered scales with the "
                    "replicas the coordinator enrols\n");
        harness.recordClusterSweep("training_placement", points);
    }

    harness.note("feed_buffer_high_water", feed_high_water);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    harness.note("peak_rss_mb",
                 static_cast<double>(ru.ru_maxrss) / 1024.0); // KiB
    harness.finish();
    return 0;
}
