/**
 * @file
 * The Equinox accelerator: the composition root of the block/port
 * simulation architecture (Figures 3 and 5 of the paper).
 *
 * The cycle-accurate machinery lives in the blocks under sim/blocks/:
 * the RequestDispatcher (arrivals + batch formation), the
 * InstructionDispatcher (the Figure 5 scheduler with its pluggable
 * SchedulingPolicy), the Datapath (MMU/SIMD timing and the Figure 8
 * accounting), the TrainPrefetcher (operand staging), and the FaultUnit
 * (injection + recovery). This class owns the SimContext they share,
 * wires their ports, drives the run loop, and assembles the SimResult.
 *
 * The simulator executes compiled programs (isa::CompiledProgram) under a
 * Poisson inference load while an optional training service consumes idle
 * MMU cycles, and reports latency distributions, throughput, and the MMU
 * cycle breakdown of Figure 8.
 */

#ifndef EQUINOX_SIM_ACCELERATOR_HH
#define EQUINOX_SIM_ACCELERATOR_HH

#include <memory>

#include "common/types.hh"
#include "sim/accelerator_types.hh"
#include "sim/blocks/context.hh"
#include "sim/buffer.hh"
#include "sim/config.hh"

namespace equinox
{
namespace stats
{
class StatRegistry;
}

namespace sim
{

class Datapath;
class FaultUnit;
class InstructionDispatcher;
class RequestDispatcher;
class TraceSink;
class TrainPrefetcher;

/** The simulated accelerator (composition root of the blocks). */
class Accelerator
{
  public:
    explicit Accelerator(AcceleratorConfig config);
    ~Accelerator();

    Accelerator(const Accelerator &) = delete;
    Accelerator &operator=(const Accelerator &) = delete;

    /**
     * Install an inference service (copies weights/instructions into the
     * buffers, allocates context space). Fatal when the footprint does
     * not fit the buffers.
     * @return the service's hardware-context id.
     */
    ContextId installInference(InferenceServiceDesc desc);

    /** Install the (single) training service. */
    ContextId installTraining(TrainingServiceDesc desc);

    /**
     * Run one experiment; resets all dynamic state first. With
     * spec.fast_forward (the default) the event kernel dispatches
     * analytically-next events inline -- byte-identical results, fewer
     * heap round-trips.
     */
    SimResult run(const RunSpec &spec);

    const AcceleratorConfig &config() const { return cfg; }

    /**
     * Analytic saturation inference throughput of installed service
     * @p ctx (ops/s on real data): peak rate times the program's
     * geometry efficiency. Used to convert "load" into arrival rates.
     */
    double maxInferenceOpRate(ContextId ctx = 0) const;

    /** Requests per second at saturation for service @p ctx. */
    double maxRequestRate(ContextId ctx = 0) const;

    /**
     * Install (or remove, with nullptr) a trace sink observing block
     * events. Observation only: tracing never perturbs simulated
     * behaviour. The sink must outlive the runs it observes.
     */
    void setTraceSink(TraceSink *sink);

    /** Register every block's counters/gauges ("<block>.<stat>"). */
    void registerStats(stats::StatRegistry &reg);

  private:
    AcceleratorConfig cfg;

    /**
     * Event-heap reserve carried across runs: seeded with a floor that
     * covers a cold start, then raised to the worst highWater() any
     * previous run on this accelerator observed, so sweeps over many
     * load points stop reallocating after the first run.
     */
    std::size_t event_reserve_ = 1024;

    // on-chip buffers (install-time space sharing)
    SramBuffer act_buffer;
    SramBuffer weight_buffer;
    SramBuffer instr_buffer;
    SramBuffer simd_rf;

    /** The shared core every block is wired to (after cfg/buffers). */
    SimContext ctx;

    // the blocks (composition order; see the constructor's wiring)
    std::unique_ptr<RequestDispatcher> requests;
    std::unique_ptr<InstructionDispatcher> dispatcher;
    std::unique_ptr<Datapath> datapath;
    std::unique_ptr<TrainPrefetcher> prefetcher;
    std::unique_ptr<FaultUnit> faults;
};

} // namespace sim
} // namespace equinox

#endif // EQUINOX_SIM_ACCELERATOR_HH
