/**
 * @file
 * SweepRunner: deterministic fan-out of independent simulation
 * points.
 *
 * A sweep point is a pure function of its index: it builds its own
 * (EventQueue, MemorySystem, Driver) world, runs it, and returns a
 * result. Because points share no simulated state and results are
 * collected by index, the output is bit-identical whatever the
 * thread count -- SweepRunner(1) is the reference serial execution
 * the tests compare against.
 *
 * Warm-once mode: many sweeps run an identical warm-up phase at
 * every point before the point-specific measurement. mapFromWarm()
 * runs that warm-up exactly once on a prototype world, captures a
 * WorldSnapshot at quiescence, and restores it into each point's
 * fresh world in O(state) -- bit-identical to the cold-per-point
 * run (the fork-fidelity tests assert this), at a fraction of the
 * wall clock.
 */

#ifndef VANS_COMMON_SWEEP_HH
#define VANS_COMMON_SWEEP_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/event_queue.hh"
#include "common/mem_system.hh"
#include "common/parallel.hh"
#include "common/snapshot.hh"

namespace vans
{

/**
 * Runs indexed, independent simulation points across host cores.
 * This is the simulator's only parallelism: each world runs on one
 * event queue and one thread.
 */
class SweepRunner
{
  public:
    /**
     * Fan out over at most @p t threads, started per sweep (t <= 1:
     * run inline on the calling thread).
     */
    explicit SweepRunner(unsigned t = hardwareThreads())
        : threads(t < 1 ? 1 : t)
    {
    }

    /**
     * Evaluate fn(i) for i in [0, n); results collected in index
     * order. R must be default-constructible and movable.
     */
    template <typename R, typename Fn>
    std::vector<R>
    map(std::size_t n, Fn &&fn) const
    {
        std::vector<R> out(n);
        parallelFor(n, threads,
                    [&out, &fn](std::size_t i) { out[i] = fn(i); });
        return out;
    }

    /**
     * A captured warm world: the reusable product of warmOnce(). One
     * WarmStart can feed any number of mapForked() sweeps --
     * multi-stage probers warm once and fork every stage from the
     * same image.
     */
    struct WarmStart
    {
        SystemFactory factory;
        snapshot::WorldSnapshot snap;
    };

    /**
     * Run @p warm on one prototype world built from @p factory, step
     * it to quiescence and capture its snapshot. Capturing a system
     * without snapshot support fails in MemorySystem::serialize,
     * naming the system.
     */
    template <typename WarmFn>
    WarmStart
    warmOnce(const SystemFactory &factory, WarmFn &&warm) const
    {
        WarmStart ws;
        ws.factory = factory;
        EventQueue eq;
        std::unique_ptr<MemorySystem> proto = ws.factory(eq);
        warm(*proto);
        proto->drain();
        ws.snap = snapshot::WorldSnapshot::capture(eq, *proto);
        return ws;
    }

    /**
     * Evaluate fn(MemorySystem&, i) for i in [0, n), each point on a
     * freshly built world restored from @p ws's snapshot in O(state).
     * Every point sees the identical quiescent warm state, so results
     * are bit-identical to the serial cold-per-point run whatever the
     * thread count.
     */
    template <typename R, typename PointFn>
    std::vector<R>
    mapForked(const WarmStart &ws, std::size_t n, PointFn &&fn) const
    {
        std::vector<R> out(n);
        parallelFor(n, threads, [&](std::size_t i) {
            EventQueue eq;
            std::unique_ptr<MemorySystem> sys = ws.factory(eq);
            ws.snap.restoreInto(eq, *sys);
            out[i] = fn(*sys, i);
        });
        return out;
    }

    /**
     * Warm-once / fork-many sweep: warmOnce() + one mapForked().
     * Builds one prototype world from @p factory, runs
     * warm(MemorySystem&) on it, steps it to quiescence and captures
     * a WorldSnapshot; then evaluates fn(MemorySystem&, i) for i in
     * [0, n), each point on a freshly built world restored from the
     * snapshot.
     */
    template <typename R, typename WarmFn, typename PointFn>
    std::vector<R>
    mapFromWarm(const SystemFactory &factory, WarmFn &&warm,
                std::size_t n, PointFn &&fn) const
    {
        return mapForked<R>(
            warmOnce(factory, std::forward<WarmFn>(warm)), n,
            std::forward<PointFn>(fn));
    }

    /**
     * Stream-independent per-point seed: mixes a base seed with the
     * point index (SplitMix64 finalizer) so neighbouring points get
     * uncorrelated streams while staying reproducible.
     */
    static std::uint64_t
    pointSeed(std::uint64_t base, std::size_t i)
    {
        std::uint64_t z =
            base + (static_cast<std::uint64_t>(i) + 1) *
                       0x9e3779b97f4a7c15ull;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

  private:
    unsigned threads;
};

} // namespace vans

#endif // VANS_COMMON_SWEEP_HH
