#include "common/parallel.hh"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <thread>
#include <vector>

#include "common/logging.hh"

namespace vans
{

unsigned
hardwareThreads()
{
    if (const char *env = std::getenv("VANS_THREADS")) {
        // from_chars into an unsigned takes digits only: no sign, no
        // blanks, no trailing text, and no value past the type.
        const char *end = env + std::strlen(env);
        unsigned v = 0;
        auto [ptr, ec] = std::from_chars(env, end, v);
        if (ec != std::errc() || ptr != end || v < 1)
            fatal("VANS_THREADS='%s': expected a whole decimal number "
                  "from 1 to %u",
                  env, std::numeric_limits<unsigned>::max());
        return v;
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? hw : 1u;
}

namespace
{
/** Set on the threads parallelFor starts: a parallelFor called from
 *  one of them runs inline instead of starting threads of its own. */
thread_local bool insideParallelFor = false;
} // namespace

void
parallelFor(std::size_t n, unsigned threads,
            const std::function<void(std::size_t)> &fn)
{
    if (threads <= 1 || n <= 1 || insideParallelFor) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    // Each thread takes the next unstarted index until the range is
    // drained. Callers collect results by index, so the output does
    // not depend on which thread ran which index.
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error; // written only by the first thrower
    auto lane = [&] {
        insideParallelFor = true;
        while (!failed.load()) {
            std::size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                if (!failed.exchange(true))
                    error = std::current_exception();
            }
        }
    };

    std::vector<std::thread> lanes;
    auto joinAll = [&lanes] {
        for (std::thread &t : lanes)
            t.join();
    };
    try {
        std::size_t count = std::min<std::size_t>(threads, n);
        lanes.reserve(count);
        for (std::size_t t = 0; t < count; ++t)
            lanes.emplace_back(lane);
    } catch (...) {
        // A thread could not start: stop the started ones after
        // their current index and report the failure.
        failed = true;
        joinAll();
        throw;
    }
    joinAll();
    if (error)
        std::rethrow_exception(error);
}

} // namespace vans
