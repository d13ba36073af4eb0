/**
 * @file
 * Deterministic parallel execution of independent experiments.
 *
 * Every sweep in this repo (load points, DSE grid cells, fault seeds)
 * runs self-contained simulations: each point builds its own
 * Accelerator and Rng streams and touches nothing shared. parallelFor
 * fans such sweeps out across worker threads while keeping the results
 * byte-identical to a serial run:
 *
 *  - results are written by input index, never in completion order;
 *  - the first (lowest-index) exception is rethrown on the caller,
 *    regardless of which worker hit it first in wall-clock time;
 *  - `jobs == 1` takes the exact serial code path (a plain loop, no
 *    threads, no try/catch indirection) so debugging stays simple;
 *  - nested parallelFor calls degrade to serial inside a worker, so a
 *    parallel sweep may safely call library code that itself fans out.
 *
 * Anything with process-global mutable state (stdout tables, stat
 * registries, trace sinks) must stay outside the parallel region; see
 * DESIGN.md "Parallel experiment execution" for the contract.
 */

#ifndef EQUINOX_COMMON_PARALLEL_HH
#define EQUINOX_COMMON_PARALLEL_HH

#include <cstddef>
#include <functional>
#include <vector>

namespace equinox
{

/**
 * Default worker count for parallel sweeps: the EQX_JOBS environment
 * variable when set to a positive integer, otherwise
 * std::thread::hardware_concurrency() (at least 1).
 */
std::size_t defaultJobs();

/** True while the calling thread is a parallelFor worker. */
bool inParallelRegion();

/**
 * Run fn(0) .. fn(n-1) across @p jobs workers (0 = defaultJobs()).
 *
 * With jobs == 1, n <= 1, or when already inside a parallel region,
 * this is exactly `for (i = 0; i < n; ++i) fn(i)` on the calling
 * thread. Otherwise min(jobs, n) threads claim indices from one atomic
 * counter until none are left, so the fan-out never exceeds the worker
 * count however large n is. An exception does not stop the other
 * indices: every index runs, and the exception of the lowest index is
 * rethrown after every worker has finished (deterministic, unlike
 * first-in-wall-clock).
 */
void parallelFor(std::size_t jobs, std::size_t n,
                 const std::function<void(std::size_t)> &fn);

/**
 * Map @p fn over @p inputs with parallelFor; results are collected in
 * input order. @p fn must be invocable const on each element.
 */
template <typename In, typename Fn>
auto
parallelMap(std::size_t jobs, const std::vector<In> &inputs, Fn fn)
    -> std::vector<decltype(fn(inputs[0]))>
{
    std::vector<decltype(fn(inputs[0]))> out(inputs.size());
    parallelFor(jobs, inputs.size(),
                [&](std::size_t i) { out[i] = fn(inputs[i]); });
    return out;
}

} // namespace equinox

#endif // EQUINOX_COMMON_PARALLEL_HH
