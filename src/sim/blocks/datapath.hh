/**
 * @file
 * Datapath: the MMU + SIMD execution timing block.
 *
 * Models the matrix-multiply array's chunked occupancy (instruction-
 * granularity interleaving between inference and training), the shared
 * SIMD unit's serialising epilogues, per-step drains, and batch/
 * iteration retirement -- and owns every measured-window datapath
 * accumulator: the Figure 8 cycle breakdown, the service-time tracker,
 * useful-op counts, and MMU/SIMD busy cycles. Request latencies are
 * recorded once, into the retiring service's own tracker.
 *
 * Inference granules the InstructionDispatcher knows no round could
 * interrupt issue as one span: each granule is charged as it would be
 * on its own, in order, and one completion event ends the span
 * (DESIGN.md section 2.7, "Coalesced inference granules").
 */

#ifndef EQUINOX_SIM_BLOCKS_DATAPATH_HH
#define EQUINOX_SIM_BLOCKS_DATAPATH_HH

#include "common/types.hh"
#include "isa/program.hh"
#include "sim/blocks/inf_types.hh"
#include "sim/blocks/sim_block.hh"
#include "stats/cycle_breakdown.hh"
#include "stats/histogram.hh"

namespace equinox
{
namespace sim
{

class FaultUnit;
class InstructionDispatcher;
class TrainPrefetcher;

/** MMU/SIMD datapath timing and measured-window accounting. */
class Datapath final : public SimBlock
{
  public:
    explicit Datapath(SimContext &context);
    ~Datapath() override;

    /** Wire control ports (composition root, once). */
    void connect(InstructionDispatcher *dispatcher_,
                 TrainPrefetcher *prefetcher_, FaultUnit *faults_);

    void resetRun() override;
    void beginMeasurement() override;
    void registerStats(stats::StatRegistry &reg) override;

    /**
     * Occupy the array with inference chunks of @p batch: one granule,
     * then more back to back while the next granule boundary lies
     * before @p until and the step has cycles left (the span the
     * InstructionDispatcher folds; @p until <= now issues one granule).
     * One completion event ends the span.
     */
    void issueInferenceChunk(InfBatch *batch, Tick until);

    /** Occupy the array with the next training chunk. */
    void issueTrainingChunk();

    /**
     * MMU cycles of one interleaving chunk of @p tw while a training
     * context shares the array (InfService::chunk_granules, set at
     * install).
     */
    static Tick interleaveGranule(const isa::TileWork &tw);

    /** The array is occupied (nothing else may issue). */
    bool mmuBusy() const { return mmu_busy; }

    /**
     * Attribute the idle/stall gap since the last MMU release up to
     * @p upto (end-of-run flush; issue paths call it internally).
     */
    void accountGap(Tick upto);

    // -- measured-window accumulators (read by the composition root) ----
    const stats::CycleBreakdown &breakdownStats() const
    {
        return breakdown;
    }
    const stats::LatencyTracker &serviceCycles() const
    {
        return service_cycles;
    }
    double infUsefulOps() const { return inf_useful_ops; }
    double trainUsefulOps() const { return train_useful_ops; }
    double mmuBusyMeasured() const { return mmu_busy_measured; }
    double simdBusyMeasured() const { return simd_busy_measured; }

  private:
    void chargeMmu(const isa::TileWork &tw, Tick cycles,
                   double real_frac);
    void completeInferenceChunk(InfBatch *batch, Tick chunk);
    void completeTrainingChunk(Tick chunk);
    void advanceTrainingStep();

    InstructionDispatcher *dispatcher = nullptr;
    TrainPrefetcher *prefetcher = nullptr;
    FaultUnit *faults = nullptr;

    // -- dynamic issue state --------------------------------------------
    bool mmu_busy = false;
    Tick mmu_last_release = 0;
    /** Inference work existed at release: gaps are stalls, not idle. */
    bool inf_waiting_at_release = false;
    Tick simd_free = 0; //!< shared SIMD unit's earliest-free tick

    // -- measured window ------------------------------------------------
    stats::CycleBreakdown breakdown; //!< Figure 8 categories
    stats::LatencyTracker service_cycles;
    double inf_useful_ops = 0.0;
    double train_useful_ops = 0.0;
    double mmu_busy_measured = 0.0;
    double simd_busy_measured = 0.0;
};

} // namespace sim
} // namespace equinox

#endif // EQUINOX_SIM_BLOCKS_DATAPATH_HH
