/**
 * @file
 * Slab-backed pool of Request descriptors with generation-checked
 * handles.
 *
 * Every memory system owns one RequestPool. Requests live in chunked
 * storage that never moves (the same idiom as the event kernel's
 * callback slab), components hold a 64-bit RequestHandle -- 32-bit
 * slot in the low half, 32-bit generation in the high half -- and a
 * retired slot recycles through a LIFO free list after its generation
 * is bumped. Dereferencing a stale handle is therefore a loud
 * VANS_REQUIRE failure instead of a use-after-free, and steady-state
 * issue/retire performs zero allocations once the slab has grown to
 * the peak in-flight depth.
 *
 * The per-request trace hop log recycles in an adjacent slab keyed by
 * the same slot: traced runs reuse one ReqTrace (and its grown hops
 * capacity) per slot instead of allocating per request.
 *
 * A pool belongs to one world and is touched by one thread, so it
 * needs no synchronization and its free-list order (hence every
 * handle value) is deterministic.
 */

#ifndef VANS_COMMON_REQUEST_POOL_HH
#define VANS_COMMON_REQUEST_POOL_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.hh"
#include "common/request.hh"

namespace vans::snapshot
{
class Archive;
} // namespace vans::snapshot

namespace vans
{

class StatGroup;

/**
 * Opaque 64-bit reference to a pooled Request: low 32 bits index the
 * slot, high 32 bits carry the slot's generation at allocation time.
 * Generations start at 1, so a default-constructed handle (bits == 0)
 * is never valid.
 */
struct RequestHandle
{
    std::uint64_t bits = 0;

    std::uint32_t slot() const
    {
        return static_cast<std::uint32_t>(bits);
    }
    std::uint32_t generation() const
    {
        return static_cast<std::uint32_t>(bits >> 32);
    }

    explicit operator bool() const { return bits != 0; }
    bool operator==(const RequestHandle &o) const
    {
        return bits == o.bits;
    }
    bool operator!=(const RequestHandle &o) const
    {
        return bits != o.bits;
    }

    static RequestHandle
    make(std::uint32_t slot, std::uint32_t gen)
    {
        return {(static_cast<std::uint64_t>(gen) << 32) | slot};
    }
};

/** The slab allocator behind every in-flight Request. */
// simlint-hot
class RequestPool
{
  public:
    // Both out of line: the trace slab's unique_ptr<ReqTrace[]>
    // needs the complete type, which this header only forward-
    // declares.
    RequestPool();
    ~RequestPool();
    RequestPool(const RequestPool &) = delete;
    RequestPool &operator=(const RequestPool &) = delete;

    /**
     * Allocate a fresh request (fields reset to defaults). Recycles
     * the most recently released slot when one is free; grows the
     * slab by one chunk otherwise.
     */
    RequestHandle alloc();

    /** Dereference @p h; aborts loudly on a stale or empty handle. */
    Request &
    get(RequestHandle h)
    {
        Cell &c = checkedCell(h);
        return c.req;
    }

    const Request &
    get(RequestHandle h) const
    {
        return const_cast<RequestPool *>(this)->get(h);
    }

    /**
     * Return @p h's slot to the free list. The slot's generation is
     * bumped, so every outstanding copy of the handle goes stale.
     * Only the issuer calls this, after (or inside) its completion
     * callback.
     */
    void release(RequestHandle h);

    /** True when @p h currently dereferences (probe, never aborts). */
    bool valid(RequestHandle h) const;

    /**
     * The recycled per-slot trace hop log (traced runs only). Lazily
     * allocates the slot's chunk of the adjacent trace slab on first
     * use; afterwards the same ReqTrace -- with its grown hops
     * capacity -- serves every request that recycles the slot.
     */
    obs::ReqTrace &traceFor(RequestHandle h);

    /** Requests currently allocated. */
    std::size_t live() const { return numLive; }

    /** Total slots in the slab (grows, never shrinks). */
    std::uint32_t capacity() const { return slabSize; }

    /** Export pool counters as scalars of @p stats. */
    void statsInto(StatGroup &stats) const;

    /**
     * Serialize the pool's warm shape: slab size, free-list order,
     * per-slot generations and the counters. Requires live() == 0
     * (the snapshot contract demands a quiescent world, and at
     * quiescence every request has been released).
     */
    void serialize(snapshot::Archive &ar);

  private:
    /** Slots per slab chunk (power of two; chunks never move). */
    static constexpr std::uint32_t chunkShift = 7;
    static constexpr std::uint32_t chunkSize = 1u << chunkShift;

    struct Cell
    {
        // simlint-transient(snapshots require live() == 0, so every
        // cell's request is dead at capture; a restored world fills
        // slots afresh through alloc())
        Request req;
        std::uint32_t gen = 1;
        // simlint-transient(false for every slot of a quiescent pool,
        // and serialize REQUIREs live() == 0 in both directions)
        bool liveFlag = false;
    };

    Cell &
    cell(std::uint32_t slot)
    {
        return chunks[slot >> chunkShift][slot & (chunkSize - 1)];
    }

    const Cell &
    cell(std::uint32_t slot) const
    {
        return chunks[slot >> chunkShift][slot & (chunkSize - 1)];
    }

    Cell &
    checkedCell(RequestHandle h)
    {
        std::uint32_t slot = h.slot();
        VANS_REQUIRE("reqpool", 0,
                     slot < slabSize && cell(slot).liveFlag &&
                         cell(slot).gen == h.generation(),
                     "stale request handle: slot %u gen %u "
                     "(slab %u slots, slot gen %u, %s)",
                     slot, h.generation(), slabSize,
                     slot < slabSize ? cell(slot).gen : 0,
                     slot < slabSize && cell(slot).liveFlag
                         ? "live"
                         : "released");
        return cell(slot);
    }

    void growChunk();

    /**
     * Request storage. Chunks never move, so a Request& stays valid
     * across slab growth (an issuing callback may allocate).
     */
    // simlint-transient(slab cells hold in-flight requests only, and
    // serialize REQUIREs live() == 0: every cell is dead at capture
    // and the generations that matter are serialized separately)
    std::vector<std::unique_ptr<Cell[]>> chunks;

    /**
     * Adjacent ReqTrace slab, keyed by the same slot; chunks are
     * allocated lazily (first traced request touching the chunk) and
     * recycled with the request slot.
     */
    // simlint-transient(observability-only: a restored world records
    // a fresh trace, mirroring the TraceRecorder snapshot contract)
    std::vector<std::unique_ptr<obs::ReqTrace[]>> traceChunks;

    std::vector<std::uint32_t> freeSlots; ///< LIFO recycle order.

    std::uint32_t slabSize = 0;
    std::size_t numLive = 0;
    std::size_t maxLive = 0;
    std::uint64_t numAllocs = 0;
    std::uint64_t numReleases = 0;
    std::uint64_t numRecycles = 0;
    std::uint64_t numGrowths = 0;
};

} // namespace vans

#endif // VANS_COMMON_REQUEST_POOL_HH
