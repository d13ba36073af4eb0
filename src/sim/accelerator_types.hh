/**
 * @file
 * Plain data types of the accelerator's public interface: service
 * descriptors ready for installation, the per-run RunSpec, and the
 * SimResult a run reports. Split out of accelerator.hh so the
 * simulation blocks under sim/blocks/ can name them without pulling in
 * the composition root.
 */

#ifndef EQUINOX_SIM_ACCELERATOR_TYPES_HH
#define EQUINOX_SIM_ACCELERATOR_TYPES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "fault/fault_plan.hh"
#include "fault/injector.hh"
#include "isa/program.hh"
#include "mem/mem_stats.hh"
#include "stats/cycle_breakdown.hh"
#include "stats/fault_stats.hh"
#include "stats/histogram.hh"

namespace equinox
{
namespace sim
{

/** An inference service ready for installation. */
struct InferenceServiceDesc
{
    std::string model_name;
    /** Program compiled for a full batch of program.batch_rows requests. */
    isa::CompiledProgram program;
    /** Weight-buffer footprint (install-time space sharing). */
    ByteCount weight_footprint = 0;
    /** Activation-buffer footprint. */
    ByteCount act_footprint = 0;
    /** Per-request input / output bytes over the host interface. */
    ByteCount input_bytes_per_request = 0;
    ByteCount output_bytes_per_request = 0;
    /** Analytic single-batch service time (sets the adaptive timeout). */
    double service_time_s = 0.0;
};

/** A training service (one SGD iteration loop) ready for installation. */
struct TrainingServiceDesc
{
    std::string model_name;
    /** One iteration; steps carry DRAM stream/store bytes. */
    isa::CompiledProgram iteration;
    /** Parameter-server bytes exchanged per iteration (host link). */
    ByteCount sync_bytes_per_iteration = 0;
    /**
     * Bytes one training-weight checkpoint writes to (and a rollback
     * re-reads from) DRAM: the master-precision weights. 0 makes
     * checkpoints and restores free of DRAM cost but they still commit.
     */
    ByteCount checkpoint_bytes = 0;
};

/** Shape of the inference request arrival process. */
enum class ArrivalProcess
{
    Poisson, //!< memoryless arrivals (the paper's load generator)
    Bursty,  //!< on/off-modulated Poisson with the same mean rate
};

/** Parameters of one simulation run. */
struct RunSpec
{
    /** Poisson arrival rate of service 0 (0 = training only). */
    double arrival_rate_per_s = 0.0;
    /**
     * Per-service arrival rates (install order); when non-empty this
     * overrides arrival_rate_per_s and drives multiple inference
     * contexts concurrently. Service i draws its candidates from
     * ArrivalStream index i of `seed`.
     */
    std::vector<double> arrival_rates;
    ArrivalProcess arrival_process = ArrivalProcess::Poisson;
    /** Bursty mode: peak rate = burst_factor x mean (duty 1/factor). */
    double burst_factor = 4.0;
    /** Bursty mode: on/off modulation period in seconds. */
    double burst_period_s = 2e-3;
    /**
     * Explicit arrival-candidate trace for service 0 in clock cycles
     * (ascending); when non-empty it replaces service 0's arrival
     * stream candidate for candidate but keeps everything else --
     * chained scheduling, bursty thinning, shedding -- so a run fed
     * the exact candidate ticks a stochastic run would have drawn is
     * byte-identical to it. Entries are candidates, not admissions.
     * This is the cluster router's feed: the router splits one global
     * arrival stream into per-replica traces.
     */
    std::vector<Tick> arrival_trace_ticks;
    /** Requests completed before measurement starts. */
    std::uint64_t warmup_requests = 200;
    /** Minimum simulated warmup time (both conditions must hold). */
    double warmup_s = 0.0;
    /** Requests measured before the run stops. */
    std::uint64_t measure_requests = 2000;
    /** Minimum measured simulated time (both conditions must hold). */
    double min_measure_s = 0.0;
    /** Training iterations measured when no inference load is offered. */
    std::uint64_t measure_iterations = 20;
    /** Hard wall on simulated time. */
    double max_sim_s = 20.0;
    std::uint64_t seed = 1;
    /**
     * Steady-state fast-forward: dispatch analytically-next events
     * inline instead of round-tripping them through the event heap.
     * Byte-identical to the cycle-accurate path by construction (see
     * EventQueue::scheduleFast and DESIGN.md section 2.7); on by
     * default. false selects the reference path, which schedules every
     * event through the heap; only the differential tests use it.
     */
    bool fast_forward = true;
    /**
     * Faults to inject and recovery policies to answer them with. The
     * default plan injects nothing and the fault layer is skipped
     * entirely (fault-free runs stay byte-identical).
     */
    fault::FaultPlan faults;
};

/** Everything a run reports. */
struct SimResult
{
    double sim_seconds = 0.0;
    std::uint64_t completed_requests = 0;
    double offered_rate_per_s = 0.0;

    // Throughput in ops/s on real (non-padded) data.
    double inference_throughput_ops = 0.0;
    double training_throughput_ops = 0.0;

    // Per-request latency (seconds), measured window only.
    double mean_latency_s = 0.0;
    double p50_latency_s = 0.0;
    double p99_latency_s = 0.0;
    double max_latency_s = 0.0;

    /** Mean batch processing time excluding queuing/formation. */
    double mean_service_s = 0.0;

    stats::CycleBreakdown mmu_breakdown;

    std::uint64_t batches_formed = 0;
    std::uint64_t batches_incomplete = 0;
    double avg_batch_fill = 0.0;

    double dram_utilization = 0.0;
    ByteCount dram_train_bytes = 0;
    ByteCount host_bytes = 0;
    std::uint64_t training_iterations = 0;

    /** MMU cycles with an instruction in the array (measured window). */
    double mmu_busy_cycles = 0.0;
    /** SIMD-unit busy cycles (measured window). */
    double simd_busy_cycles = 0.0;

    /** Per-inference-service latency summary (install order). */
    struct ServiceStats
    {
        ContextId ctx = 0;
        std::string model_name;
        std::uint64_t completed = 0;
        double mean_latency_s = 0.0;
        double p99_latency_s = 0.0;
    };
    std::vector<ServiceStats> per_service;

    // -- fault and recovery reporting ---------------------------------
    /** Fault counters and recovery actions (all zero when fault-free). */
    stats::FaultStats faults;
    /** Serving fraction of the measured window (1.0 when fault-free). */
    double availability = 1.0;
    /** Training iterations durably committed (checkpointed or final). */
    std::uint64_t committed_training_iterations = 0;
    /** Every injected fault, in injection order (determinism checks). */
    std::vector<fault::FaultRecord> fault_trace;

    // -- run-total conservation counters (whole run, not just the
    // -- measured window; the cluster property tests check that
    // -- admitted == retired + inflight at the horizon) ----------------
    /** Requests admitted past shedding into pending queues (run total). */
    std::uint64_t admitted_requests = 0;
    /** Requests whose batches completed the datapath (run total). */
    std::uint64_t retired_requests = 0;
    /** Requests still pending or in unfinished batches at the horizon. */
    std::uint64_t inflight_requests = 0;

    /**
     * Raw measured-window per-request latencies in cycles. Carried so a
     * cluster merge can compute exact percentiles over the concatenated
     * per-replica samples instead of approximating from the derived
     * quantiles above.
     */
    stats::LatencyTracker latency_cycles;

    // -- simulator execution diagnostics (NOT part of the result
    // -- digest: they describe how the simulator ran, not what the
    // -- simulated machine did; events_inlined, fills_deferred and so
    // -- events_dispatched legitimately differ between fast-forwarded
    // -- and cycle-accurate runs) --------------------------------------
    /** Events this run dispatched (incl. inlined fast-forward ones). */
    std::uint64_t events_dispatched = 0;
    /** Dispatches the fast-forward engine inlined (0 when disabled). */
    std::uint64_t events_inlined = 0;
    /**
     * Staging fills the training prefetcher landed without an event (0
     * on the reference path): each stands for one event the reference
     * path dispatches, so events_dispatched + fills_deferred equals the
     * reference path's events_dispatched.
     */
    std::uint64_t fills_deferred = 0;
    /**
     * Memory-hierarchy counters (all-zero, active=false with the
     * default passthrough hierarchy). Diagnostics like the fields
     * above: the digest fold must never include them, so that a
     * passthrough run stays byte-identical to the pre-hierarchy
     * simulator and non-trivial hierarchies keep digest comparability
     * across jobs=1/jobs=N and FF-on/off.
     */
    mem::MemStats mem;
};

} // namespace sim
} // namespace equinox

#endif // EQUINOX_SIM_ACCELERATOR_TYPES_HH
