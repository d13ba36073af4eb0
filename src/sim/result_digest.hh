/**
 * @file
 * FNV-1a digest over every observable field of a SimResult, in a
 * fixed documented order.
 *
 * This fold is LOAD-BEARING: the golden identity constants in
 * tests/test_refactor_identity.cc were recorded through it (via
 * tests/sim_digest.hh, which delegates here), and the fast-forward
 * differential tests (tests/test_fast_forward.cc,
 * tests/test_mem_differential.cc) compare fast-forwarded and
 * reference-path runs through it.
 * Never reorder, drop, or add fields without re-recording the goldens
 * -- and the goldens' policy is that they are only re-recorded when
 * simulated behaviour deliberately changes.
 *
 * Deliberately NOT folded: SimResult::events_dispatched,
 * events_inlined and fills_deferred. They describe the simulator's
 * execution strategy, not the simulated machine -- events_inlined and
 * fills_deferred (and with the latter events_dispatched) differ
 * between a fast-forwarded and a cycle-accurate run of the same
 * scenario by design, and the whole point of the digest is that
 * nothing else does.
 */

#ifndef EQUINOX_SIM_RESULT_DIGEST_HH
#define EQUINOX_SIM_RESULT_DIGEST_HH

#include <cstdint>
#include <cstring>
#include <string>

#include "sim/accelerator_types.hh"

namespace equinox
{
namespace sim
{

/** FNV-1a over the exact bit patterns of the accumulated fields. */
class ResultDigest
{
  public:
    void
    u64(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }

    void
    d(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        for (unsigned char c : s) {
            h ^= c;
            h *= 1099511628211ull;
        }
    }

    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 14695981039346656037ull;
};

/** Fold every SimResult field, in a fixed documented order. */
inline void
foldSimResult(ResultDigest &dg, const SimResult &r)
{
    dg.d(r.sim_seconds);
    dg.u64(r.completed_requests);
    dg.d(r.offered_rate_per_s);
    dg.d(r.inference_throughput_ops);
    dg.d(r.training_throughput_ops);
    dg.d(r.mean_latency_s);
    dg.d(r.p50_latency_s);
    dg.d(r.p99_latency_s);
    dg.d(r.max_latency_s);
    dg.d(r.mean_service_s);
    for (unsigned c = 0;
         c < static_cast<unsigned>(stats::CycleClass::NumClasses); ++c)
        dg.d(r.mmu_breakdown.get(static_cast<stats::CycleClass>(c)));
    dg.u64(r.batches_formed);
    dg.u64(r.batches_incomplete);
    dg.d(r.avg_batch_fill);
    dg.d(r.dram_utilization);
    dg.u64(r.dram_train_bytes);
    dg.u64(r.host_bytes);
    dg.u64(r.training_iterations);
    dg.d(r.mmu_busy_cycles);
    dg.d(r.simd_busy_cycles);
    for (const auto &s : r.per_service) {
        dg.u64(s.ctx);
        dg.u64(s.completed);
        dg.d(s.mean_latency_s);
        dg.d(s.p99_latency_s);
    }
    dg.u64(r.faults.dram_corrected);
    dg.u64(r.faults.dram_uncorrectable);
    dg.u64(r.faults.host_drops);
    dg.u64(r.faults.host_corruptions);
    dg.u64(r.faults.mmu_hangs);
    dg.u64(r.faults.host_retries);
    dg.u64(r.faults.host_give_ups);
    dg.u64(r.faults.watchdog_resets);
    dg.u64(r.faults.checkpoints_written);
    dg.u64(r.faults.rollbacks);
    dg.u64(r.faults.lost_training_iterations);
    dg.u64(r.faults.shed_requests);
    dg.u64(r.faults.storms_entered);
    dg.u64(r.faults.downtime_cycles);
    dg.u64(r.faults.recovery_cycles.count());
    dg.d(r.faults.recovery_cycles.mean());
    dg.d(r.faults.recovery_cycles.max());
    dg.d(r.availability);
    dg.u64(r.committed_training_iterations);
    for (const auto &f : r.fault_trace) {
        dg.u64(f.tick);
        dg.u64(static_cast<std::uint64_t>(f.kind));
        dg.u64(f.bytes);
    }
}

/** Digest one SimResult. */
inline std::uint64_t
resultDigest(const SimResult &r)
{
    ResultDigest dg;
    foldSimResult(dg, r);
    return dg.value();
}

} // namespace sim
} // namespace equinox

#endif // EQUINOX_SIM_RESULT_DIGEST_HH
