/**
 * @file
 * RequestDispatcher: the front-end block -- per-service request arrival
 * processes (Poisson, bursty, trace playback), the batch former with
 * static/adaptive policies and dummy padding, and the adaptive
 * batch-formation timeout machinery (section 3.1).
 *
 * Produces formed InfBatches into the shared BatchQueue port and pokes
 * the instruction dispatcher; routes batch-input DMA through the fault
 * unit's retrying host port.
 */

#ifndef EQUINOX_SIM_BLOCKS_REQUEST_DISPATCHER_HH
#define EQUINOX_SIM_BLOCKS_REQUEST_DISPATCHER_HH

#include <vector>

#include "common/types.hh"
#include "sim/accelerator_types.hh"
#include "sim/blocks/inf_types.hh"
#include "sim/blocks/sim_block.hh"

namespace equinox
{
namespace sim
{

class FaultUnit;
class InstructionDispatcher;

/** Request dispatcher and batch former (hardware contexts, Figure 5). */
class RequestDispatcher final : public SimBlock
{
  public:
    explicit RequestDispatcher(SimContext &context);
    ~RequestDispatcher() override;

    /** Wire control ports (composition root, once). */
    void connect(InstructionDispatcher *dispatcher_, FaultUnit *faults_);

    void resetRun() override;
    void beginMeasurement() override;
    void registerStats(stats::StatRegistry &reg) override;

    /**
     * Reset every installed service's run state (queues, and an
     * arrival stream re-seeded from the spec: service i draws stream
     * i) and schedule each service's first arrival in install order,
     * service 0's from the arrival source or tick trace when one is
     * set. Sets ctx.inference_load. Must run at tick 0, before the
     * event loop starts.
     */
    void beginRun();

    /** Raw requests + unfinished batched requests in the pipeline. */
    std::uint64_t pendingInferenceWork() const;

    /** Requests admitted past shedding (run total). */
    std::uint64_t requestsAdmitted() const { return requests_admitted; }

    // -- measured-window batch-formation tallies ------------------------
    std::uint64_t batchesFormed() const { return batches_formed; }
    std::uint64_t batchesIncomplete() const { return batches_incomplete; }
    double batchFillSum() const { return batch_fill_sum; }

  private:
    /** Plays RunSpec::arrival_trace_ticks back as an ArrivalSource. */
    class TracePlayback final : public ArrivalSource
    {
      public:
        void
        reset(const std::vector<Tick> *ticks)
        {
            ticks_ = ticks;
            pos_ = 0;
        }
        bool
        next(Tick &t) override
        {
            if (pos_ >= ticks_->size())
                return false;
            t = (*ticks_)[pos_++];
            return true;
        }

      private:
        const std::vector<Tick> *ticks_ = nullptr;
        std::size_t pos_ = 0;
    };

    void onRequestArrival(std::size_t svc_idx);
    void scheduleNextArrival(std::size_t svc_idx);
    bool inBurstOnPhase() const;
    void formFullBatches(InfService &svc);
    void formPartialBatch(InfService &svc);
    void armBatchTimeout(InfService &svc);
    void onBatchTimeout(InfService *svc);

    InstructionDispatcher *dispatcher = nullptr;
    FaultUnit *faults = nullptr;

    // measured window
    std::uint64_t batches_formed = 0;
    std::uint64_t batches_incomplete = 0;
    double batch_fill_sum = 0.0;

    // run totals (observability only)
    std::uint64_t requests_admitted = 0;

    /** Service 0's candidate source this run; null = its stream. */
    ArrivalSource *trace = nullptr;
    TracePlayback playback;
    /** The last tick read from `trace` (reads must ascend). */
    Tick trace_prev = 0;
};

} // namespace sim
} // namespace equinox

#endif // EQUINOX_SIM_BLOCKS_REQUEST_DISPATCHER_HH
