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
 * Pending events wait in a calendar wheel (Brown, CACM 1988) of 2^10
 * buckets of 2^10 ticks, about 1.05 us ahead of the current bucket.
 * Each bucket is an intrusive list kept in (tick, seq) order, so a
 * same-tick schedule is an append, and a two-level occupancy bitmap
 * finds the next non-empty bucket with count-trailing-zeros instead
 * of a scan. The few events beyond the horizon wait in a small binary
 * heap; a pop takes the earlier of the wheel's first event and the
 * heap's top. Each callback (InplaceCallback: typical captures inline,
 * move-only) is constructed in place in its event's slab node,
 * invoked there and destroyed there. Steady-state scheduling performs
 * no allocations at all once the slab, and the far heap reserved
 * alongside it, have grown to the peak pending depth.
 */

#ifndef VANS_COMMON_EVENT_QUEUE_HH
#define VANS_COMMON_EVENT_QUEUE_HH

#include <cstdint>
#include <memory>
#include <new>
#include <utility>
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

    /**
     * Schedule @p f at absolute tick @p when (must be >= curTick).
     * The callback is built directly in the event's slab node.
     */
    template <typename F>
    void
    schedule(Tick when, F &&f)
    {
        Node &n = link(when);
        // The node's callback is empty (step() resets it before the
        // slot is freed), so building over it skips only a no-op
        // destructor.
        ::new (static_cast<void *>(&n.cb)) Callback(std::forward<F>(f));
        if (n.cb.heapAllocated())
            ++numHeapCallbacks;
    }

    /** Schedule @p f @p delta ticks from now. */
    template <typename F>
    void
    scheduleAfter(Tick delta, F &&f)
    {
        schedule(now + delta, std::forward<F>(f));
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
    Tick nextAt() const;

    /** Number of pending events. */
    std::size_t pending() const { return numPending; }

    /** True when no events are pending. */
    bool empty() const { return numPending == 0; }

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
     * A slab node: one event's order key, its link (to the next event
     * of its wheel bucket, or to the next free node) and its callback.
     * 128 bytes, two cache lines.
     */
    // simlint-transient(nodes only hold pending events, and the
    // snapshot contract forbids pending events: a restore REQUIREs
    // an empty queue)
    struct Node
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t next;
        Callback cb;
    };
    static_assert(sizeof(Node) == 128, "an event node is two cache lines");

    /** Far-heap key: everything the ordering needs plus the slot. */
    // simlint-transient(far keys only exist for pending events, and a
    // restore REQUIREs an empty queue)
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** First and last node of one wheel bucket's ordered list. */
    // simlint-transient(bucket lists only hold pending events, and a
    // restore REQUIREs an empty queue)
    struct Bucket
    {
        std::uint32_t head;
        std::uint32_t tail;
    };

    /** True when @p a runs strictly before @p b (Keys or Nodes). */
    template <typename A, typename B>
    static bool
    before(const A &a, const B &b)
    {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }

    /**
     * Wheel geometry, from the measured schedule delays: 1024 buckets
     * of 1024 ticks (1.024 ns) reach about 1.05 us, which covers
     * 96-99.7% of the schedules in perfbench's three reference rounds
     * for 8 KB of bucket heads per queue; 2^13 buckets would cover
     * nearly all of them but cost 64 KB per queue.
     */
    static constexpr unsigned bucketShift = 10;
    static constexpr std::uint32_t numBuckets = 1u << 10;
    static constexpr std::uint32_t noSlot = ~0u;

    /**
     * Nodes per slab chunk: 96 x 128 B is 12 KB. Peak RSS follows
     * the allocator's layout: 64- and 128-node chunks moved
     * perfbench's peak_rss_mb by up to 1 MB (7%); 12 KB chunks kept
     * it flat. A slot is (chunk << chunkShift) | index in the chunk.
     */
    static constexpr std::uint32_t chunkNodes = 96;
    static constexpr std::uint32_t chunkShift = 7;

    /** The slab node @p slot refers to. */
    Node &
    node(std::uint32_t slot) const
    {
        return chunks[slot >> chunkShift][slot & ((1u << chunkShift) - 1)];
    }

    /** Key, slot and place for a new event at @p when; the caller
     *  builds the callback. */
    Node &link(Tick when);
    /** Put one fresh node on the (empty) free list. */
    void growSlab();
    void wheelInsert(std::uint32_t slot, Node &n);
    /** The first non-empty bucket at or after now's, or numBuckets. */
    std::uint32_t firstBucket() const;
    void siftUp(std::size_t i);
    void popFar();
    /** Run the next event if it is due by @p limit. */
    bool runNext(Tick limit);

    // simlint-transient(bucket heads are read only where the
    // occupancy bits below are set, and a restore REQUIREs an empty
    // queue, so no bucket is live on either side of a snapshot)
    Bucket buckets[numBuckets];
    /** One bit per non-empty bucket, and one per non-zero word. */
    // simlint-transient(occupancy of the buckets above: all clear
    // whenever the queue is empty, as a snapshot requires)
    std::uint64_t occupied[numBuckets / 64] = {};
    // simlint-transient(summary of occupied[]: clear with it)
    std::uint64_t occupiedWords = 0;
    /** Binary min-heap of the events beyond the wheel's horizon. */
    // simlint-transient(pending events are not serialized by
    // contract, and a restore REQUIREs an empty queue)
    std::vector<Key> far;
    /**
     * Chunked node slab: chunks never move, so nodes stay valid
     * across growth and an executing callback may safely schedule
     * (which can grow the slab) without invalidating itself.
     */
    // simlint-transient(slab nodes hold closures for pending events
    // only; with the queue empty by contract every node is dead and
    // the slab regrows on demand after restore)
    std::vector<std::unique_ptr<Node[]>> chunks;
    // simlint-transient(slab bookkeeping for the chunks above; dead
    // when no event is pending and rebuilt as the restored world
    // schedules)
    std::uint32_t slabSize = 0;
    // simlint-transient(free list threaded through dead nodes;
    // rebuilt as the restored world schedules and retires events)
    std::uint32_t freeHead = noSlot;
    // simlint-transient(count of pending events, which a snapshot
    // never carries: the restored world re-arms its own timers)
    std::size_t numPending = 0;

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
