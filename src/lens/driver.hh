/**
 * @file
 * The LENS execution driver: runs "simulated software" against any
 * MemorySystem.
 *
 * The real LENS is a Linux kernel module issuing AVX512 non-temporal
 * loads/stores at Optane hardware. Here the same access sequences are
 * issued at a simulated memory system, stepping the event queue until
 * each operation's completion callback fires. Because both the real
 * and the simulated target are driven through identical request
 * streams, the prober logic on top is oblivious to which one it is
 * profiling -- that is the property that makes the planted-parameter
 * recovery tests meaningful.
 */

#ifndef VANS_LENS_DRIVER_HH
#define VANS_LENS_DRIVER_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/mem_system.hh"
#include "common/types.hh"

namespace vans::lens
{

/** Synchronous and bounded-overlap access primitives. */
class Driver
{
  public:
    explicit Driver(MemorySystem &mem);

    /** Issue one NT read and wait for the data. @return latency. */
    Tick read(Addr addr, std::uint32_t size = cacheLineSize);

    /** Issue one NT store and wait for ADR acceptance. @return
     *  latency. */
    Tick write(Addr addr, std::uint32_t size = cacheLineSize);

    /** Issue a persistence fence and wait. @return latency. */
    Tick fence();

    /** Issue one clwb writeback and wait for ADR acceptance. */
    Tick clwb(Addr addr);

    /** Issue one clflushopt (writeback + invalidate) and wait. */
    Tick clflushopt(Addr addr);

    /**
     * Issue an sfence and wait: ADR-acceptance ordering only, the
     * persistence barrier of the flush/NT-store discipline. Strictly
     * weaker (and cheaper) than fence().
     */
    Tick sfence();

    /**
     * Persist a block the NT way: stream NT stores over it, then
     * sfence. @return total elapsed ticks -- the cost-model
     * regression tests pin the ntstore-vs-clwb crossover with this
     * pair.
     */
    Tick persistBlockNt(Addr base, std::uint32_t block_bytes,
                        unsigned outstanding = 8,
                        double issue_gap_ns = 6.0);

    /** Persist a block the cached way: clwb every line, then
     *  sfence. */
    Tick persistBlockCached(Addr base, std::uint32_t block_bytes,
                            unsigned outstanding = 8,
                            double issue_gap_ns = 6.0);

    /**
     * Issue reads for every address with at most @p mlp in flight.
     * @return total elapsed ticks from first issue to last data.
     */
    Tick streamReads(const std::vector<Addr> &addrs, unsigned mlp);

    /**
     * Same for NT stores (outstanding-store-buffer model).
     * @p issue_gap_ns models the core's store issue rate: even with
     * buffer space, stores leave the core no faster than one per
     * gap.
     */
    Tick streamWrites(const std::vector<Addr> &addrs,
                      unsigned outstanding,
                      double issue_gap_ns = 6.0);

    /** Shared machinery for the two stream calls. */
    Tick streamOps(const std::vector<Addr> &addrs, MemOp op,
                   unsigned max_in_flight, Tick issue_gap);

    /**
     * Read a block of @p block_bytes at @p base: the first line is a
     * dependent (pointer) load; the remaining lines overlap.
     * @return elapsed ticks for the whole block.
     */
    Tick readBlock(Addr base, std::uint32_t block_bytes);

    /** Write a block sequentially, one store at a time. */
    Tick writeBlock(Addr base, std::uint32_t block_bytes);

    /** Step the event queue until @p pred returns true. */
    void runUntil(const std::function<bool()> &pred);

    /**
     * Let the system idle out: run until quiescent() (shared
     * MemorySystem::drain condition). This -- never event-queue
     * emptiness -- is how a workload ends: a world whose DRAM path
     * was touched keeps its refresh wakeup armed forever, so its
     * queue never empties.
     */
    void drain();

    /** Advance simulated time by @p ticks (think time). */
    void idle(Tick ticks);

    Tick now() const { return eq.curTick(); }

  private:
    /** Shared body of the synchronous single-request ops. */
    Tick syncOp(Addr addr, MemOp op, std::uint32_t size,
                std::uint16_t lbl, bool span_addr);

    MemorySystem &mem;
    EventQueue &eq;

    /**
     * Driver-side view of the system's trace recorder (nullptr when
     * untraced): each synchronous read/write/fence op contributes a
     * span on the "lens" track so the traced timeline shows what the
     * simulated software was doing around each component's activity.
     */
    obs::TraceRecorder *tracer = nullptr;
    std::uint16_t traceTrack = 0;
    std::uint16_t lblRead = 0;
    std::uint16_t lblWrite = 0;
    std::uint16_t lblFence = 0;
    std::uint16_t lblFlush = 0;
    std::uint16_t lblSfence = 0;
};

} // namespace vans::lens

#endif // VANS_LENS_DRIVER_HH
