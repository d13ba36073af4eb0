/**
 * @file
 * The four perfbench workloads. Each is a fixed list of operations
 * (experiment points or training runs) that one pass runs in order,
 * one at a time, with jobs = 1: a closed loop over the library's
 * public API. Inside each simulated point, arrivals are open-loop
 * Poisson in simulated time.
 *
 *   chip_colocated  one Equinox_500us hbfp8 chip, LSTM-2048 inference
 *                   with LSTM-2048 training piggybacked (core::runAtLoad
 *                   at loads 0.3 / 0.6 / 0.9) plus an inference-only
 *                   point at 0.9
 *   fleet_route     Cluster::run, 8 replicas training, load 0.7, flat
 *                   Router under latency_aware and join_shortest_queue
 *   overload_chaos  4 replicas, JSQ, flash_crowd_outage chaos, load
 *                   0.8: the shed-only spec and the full ControlPlane
 *   hbfp_train      nn::trainClassifier on the ClusterDataset (Figure
 *                   2a) in hbfp8 and in fp32
 *
 * README.md in this directory explains why each exists.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tracer.hh"

namespace perfbench
{

/** One operation's output: an experiment point or a training run. */
struct OpResult
{
    std::string name;
    std::uint64_t digest = 0;
    /** The first output check that failed; empty when all passed. */
    std::string error;
};

/** One pass over a workload's operations. */
struct PassResult
{
    /** Host seconds of the pass; output checks excluded. */
    double wall_s = 0.0;
    std::vector<OpResult> ops;
    /** Simulated inference requests completed. */
    std::uint64_t completed_requests = 0;
    /** Simulator events dispatched. */
    std::uint64_t events = 0;
    /** SGD minibatch steps. */
    std::uint64_t train_steps = 0;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Build presets, compiled workloads and datasets from @p seed,
     * recording a span per set-up call on @p tracer.
     */
    virtual void setup(std::uint64_t seed, Tracer &tracer) = 0;

    /**
     * Run every operation once and check its outputs. Traced when
     * @p tracer is non-null (cluster points then go through
     * replayCluster, training through a TimedGemm).
     */
    PassResult pass(Tracer *tracer);

    /** Span layers this workload exists to exercise. */
    virtual std::vector<std::string> dominantLayers() const = 0;

  protected:
    /** The timed part of a pass; keeps its results for collect(). */
    virtual void run(Tracer *tracer) = 0;
    /** Digests, output checks and work counts of the last run(). */
    virtual void collect(PassResult &out) const = 0;
};

/** The workload called @p name, or nullptr. */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

/** Every workload name, in the order the benchmark lists them. */
const std::vector<std::string> &workloadNames();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
