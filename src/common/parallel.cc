#include "common/parallel.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <system_error>
#include <thread>

#include "common/logging.hh"

namespace equinox
{

namespace
{

/** Set on each parallelFor worker thread so nested calls degrade to
 * serial. */
thread_local bool t_in_parallel_region = false;

} // namespace

std::size_t
defaultJobs()
{
    if (const char *env = std::getenv("EQX_JOBS")) {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v > 0)
            return static_cast<std::size_t>(v);
        EQX_WARN("ignoring EQX_JOBS='", env,
                 "' (want a positive integer)");
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

bool
inParallelRegion()
{
    return t_in_parallel_region;
}

void
parallelFor(std::size_t jobs, std::size_t n,
            const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    if (jobs == 0)
        jobs = defaultJobs();
    if (jobs == 1 || n == 1 || inParallelRegion()) {
        // The exact serial code path: no threads, no exception
        // indirection. `--jobs 1` debugging and nested calls land here.
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::vector<std::exception_ptr> errors(n);
    std::atomic<std::size_t> next{0};
    auto work = [&] {
        t_in_parallel_region = true;
        for (std::size_t i = next++; i < n; i = next++) {
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };
    const std::size_t width = std::min(jobs, n);
    std::vector<std::thread> workers;
    workers.reserve(width);
    try {
        for (std::size_t w = 0; w < width; ++w)
            workers.emplace_back(work);
    } catch (const std::system_error &) {
        // Out of threads: the workers already started still claim every
        // index, so only a fan-out that started none fails. Either way
        // no started thread is left unjoined.
        if (workers.empty())
            throw;
    }
    for (auto &t : workers)
        t.join();
    // Rethrow the lowest-index failure: deterministic regardless of
    // which worker faulted first in wall-clock time.
    for (auto &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
}

} // namespace equinox
