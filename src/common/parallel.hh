/**
 * @file
 * Host-side parallelism for the simulator harness.
 *
 * Simulated time is inherently serial *within* one EventQueue, but
 * characterization sweeps (Figs. 5-10, Table II) re-run the whole
 * pipeline at dozens of independent configuration points.
 * parallelFor fans those points out across host cores; each point
 * builds its own (EventQueue, MemorySystem, Driver) world so no
 * simulated state is ever shared between threads.
 *
 * Thread count resolution: the VANS_THREADS environment variable
 * overrides std::thread::hardware_concurrency(). VANS_THREADS=1
 * forces every parallelFor onto the calling thread, which is the
 * reference execution the determinism tests compare against.
 */

#ifndef VANS_COMMON_PARALLEL_HH
#define VANS_COMMON_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace vans
{

/**
 * Threads to use for sweep fan-out: VANS_THREADS if set, otherwise
 * the hardware concurrency. VANS_THREADS must be a whole decimal
 * number of at least 1; any other value is fatal.
 */
unsigned hardwareThreads();

/**
 * Run fn(i) for every i in [0, n). Starts min(threads, n) threads
 * for this call, which take indices from a shared counter, and joins
 * them before returning. Runs inline on the calling thread when
 * threads <= 1, n <= 1, or when called from inside another
 * parallelFor, so nested sweeps never multiply threads. The first
 * exception thrown by an iteration is rethrown on the calling thread
 * after every started thread has joined.
 */
void parallelFor(std::size_t n, unsigned threads,
                 const std::function<void(std::size_t)> &fn);

} // namespace vans

#endif // VANS_COMMON_PARALLEL_HH
