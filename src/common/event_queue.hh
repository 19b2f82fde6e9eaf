/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue owns global simulated time. Components schedule
 * closures at absolute or relative ticks; the queue executes them in
 * (tick, insertion-order) order. Events scheduled for the same tick
 * therefore run in FIFO order, which keeps component handshakes
 * deterministic.
 *
 * The kernel is allocation-conscious: callbacks are InplaceCallback
 * (typical captures stored inline, moved - never copied), and the
 * ready structure is a binary min-heap of 24-byte POD keys whose
 * callbacks live in a slab with a free list. Sifting the heap moves
 * only the small keys; the callback itself is touched exactly twice
 * (constructed on schedule, moved out on pop). Steady-state
 * scheduling therefore performs no allocations at all once the slab
 * and heap have grown to the peak pending depth, which suits the
 * near-monotonic tick streams the iMC/DIMM pipeline produces.
 */

#ifndef VANS_COMMON_EVENT_QUEUE_HH
#define VANS_COMMON_EVENT_QUEUE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/inplace_function.hh"
#include "common/types.hh"

namespace vans::snapshot
{
class Archive;
} // namespace vans::snapshot

namespace vans
{

class StatGroup;

/** A discrete-event queue with a global tick counter. */
// simlint-hot
class EventQueue
{
  public:
    using Callback = InplaceCallback;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return now; }

    /** Schedule @p cb at absolute tick @p when (must be >= curTick). */
    void schedule(Tick when, Callback cb);

    /** Schedule @p cb @p delta ticks from now. */
    void scheduleAfter(Tick delta, Callback cb)
    {
        schedule(now + delta, std::move(cb));
    }

    /** Run until the queue drains. @return final tick. */
    Tick run();

    /**
     * Run until the queue drains or @p limit is reached (events at
     * exactly @p limit still execute). @return final tick.
     */
    Tick runUntil(Tick limit);

    /** Execute a single event. @return false if the queue was empty. */
    bool step();

    /**
     * Tick of the next pending event. Precondition: !empty(). The
     * crash harness peeks it to stop short of a power-cut tick.
     */
    Tick nextAt() const { return heap.front().when; }

    /** Number of pending events. */
    std::size_t pending() const { return heap.size(); }

    /** True when no events are pending. */
    bool empty() const { return heap.empty(); }

    /** Total events executed since construction. */
    std::uint64_t executed() const { return numExecuted; }

    /** Total events scheduled since construction. */
    std::uint64_t scheduled() const { return nextSeq; }

    /** Highest number of simultaneously pending events seen. */
    std::size_t peakPending() const { return maxPending; }

    /**
     * Callbacks whose captures exceeded the inline buffer and
     * spilled to the heap. Zero in a well-tuned simulator.
     */
    std::uint64_t heapCallbacks() const { return numHeapCallbacks; }

    /** Export the kernel counters as scalars of @p stats. */
    void statsInto(StatGroup &stats) const;

    /**
     * Serialize the kernel counters (time, seq, totals). Pending
     * events are NOT serialized: the snapshot contract requires the
     * world to be quiescent, and each component re-arms its own
     * guarded timers during restore. A restore needs a freshly built
     * queue (empty, tick 0); the re-armed timers the components
     * schedule afterwards continue the captured seq stream.
     */
    void serialize(snapshot::Archive &ar);

  private:
    /**
     * Heap key: everything the ordering needs, nothing else, so heap
     * sifts move 24-byte PODs instead of whole closures. `slot`
     * indexes the callback slab.
     */
    // simlint-transient(keys only exist for pending events, and the
    // snapshot contract forbids pending events: a restore REQUIREs
    // heap.empty())
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** True when @p a runs strictly before @p b. */
    static bool
    before(const Key &a, const Key &b)
    {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }

    void siftUp(std::size_t i);

    /** Callbacks per slab chunk (power of two). */
    static constexpr std::uint32_t chunkShift = 7;
    static constexpr std::uint32_t chunkSize = 1u << chunkShift;

    /** The slab cell a key's slot refers to. */
    Callback &
    cell(std::uint32_t slot)
    {
        return chunks[slot >> chunkShift][slot & (chunkSize - 1)];
    }

    std::uint32_t acquireSlot();

    // simlint-transient(pending events are not serialized by
    // contract: snapshots are taken at quiescence and a restore
    // REQUIREs heap.empty, so the heap is provably empty both ways)
    std::vector<Key> heap;
    /**
     * Chunked callback slab: chunks never move, so cells stay valid
     * across growth and an executing callback may safely schedule
     * (which can grow the slab) without invalidating itself.
     */
    // simlint-transient(slab cells hold closures for pending events
    // only; with the heap empty by contract every cell is dead and
    // the slab regrows on demand after restore)
    std::vector<std::unique_ptr<Callback[]>> chunks;
    // simlint-transient(slab bookkeeping for the chunks above; dead
    // when no event is pending and rebuilt as the restored world
    // schedules)
    std::uint32_t slabSize = 0;
    // simlint-transient(free-list over dead slab cells; rebuilt as
    // the restored world schedules and retires events)
    std::vector<std::uint32_t> freeSlots;

    Tick now = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t numExecuted = 0;
    /** Last executed key, for the seq-FIFO ordering audit. */
    Tick lastExecWhen = 0;
    std::uint64_t lastExecSeq = 0;
    std::uint64_t numHeapCallbacks = 0;
    std::size_t maxPending = 0;
};

} // namespace vans

#endif // VANS_COMMON_EVENT_QUEUE_HH
