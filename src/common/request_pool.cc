#include "common/request_pool.hh"

#include "common/snapshot.hh"
#include "common/stats.hh"
#include "common/trace_event.hh"

namespace vans
{

// Out of line so the unique_ptr<ReqTrace[]> deleter instantiates with
// the complete type.
RequestPool::RequestPool() = default;
RequestPool::~RequestPool() = default;

void
RequestPool::growChunk()
{
    // simlint-allow(hotpath: slab growth is amortized -- it happens
    // only when the in-flight depth exceeds every previous peak, and
    // steady state never reaches this branch)
    chunks.push_back(std::make_unique<Cell[]>(chunkSize));
    std::uint32_t base = slabSize;
    slabSize += chunkSize;
    // Push in reverse so the lowest slot pops first: fresh worlds
    // hand out slot 0, 1, 2, ... which keeps handle values (and the
    // recycle order after a burst) easy to reason about in tests.
    for (std::uint32_t i = chunkSize; i-- > 0;)
        freeSlots.push_back(base + i);
    ++numGrowths;
}

RequestHandle
RequestPool::alloc()
{
    if (freeSlots.empty())
        growChunk();
    else
        ++numRecycles;
    std::uint32_t slot = freeSlots.back();
    freeSlots.pop_back();

    Cell &c = cell(slot);
    c.liveFlag = true;
    Request &r = c.req;
    r.id = 0;
    r.addr = 0;
    r.size = cacheLineSize;
    r.op = MemOp::Read;
    r.issueTick = 0;
    r.completeTick = 0;
    r.preTranslate = false;
    r.trace = nullptr;
    r.onComplete = nullptr;

    ++numAllocs;
    ++numLive;
    if (numLive > maxLive)
        maxLive = numLive;
    return RequestHandle::make(slot, c.gen);
}

void
RequestPool::release(RequestHandle h)
{
    Cell &c = checkedCell(h);
    // Drop any unfired callback now so captured state (pool pointers,
    // completion flags) does not linger in a dead slot.
    c.req.onComplete = nullptr;
    c.req.trace = nullptr;
    c.liveFlag = false;
    if (++c.gen == 0)
        c.gen = 1; // Generation 0 is reserved for the null handle.
    freeSlots.push_back(h.slot());
    ++numReleases;
    --numLive;
}

bool
RequestPool::valid(RequestHandle h) const
{
    std::uint32_t slot = h.slot();
    return slot < slabSize && cell(slot).liveFlag &&
           cell(slot).gen == h.generation();
}

obs::ReqTrace &
RequestPool::traceFor(RequestHandle h)
{
    Cell &c = checkedCell(h);
    (void)c;
    std::uint32_t ci = h.slot() >> chunkShift;
    if (traceChunks.size() <= ci)
        traceChunks.resize(ci + 1);
    if (!traceChunks[ci]) {
        // One-time lazy chunk allocation on a traced run's first
        // touch; every recycle of the slot reuses the same ReqTrace.
        // simlint-allow(hotpath: lazy one-time trace-slab growth)
        traceChunks[ci] = std::make_unique<obs::ReqTrace[]>(chunkSize);
    }
    return traceChunks[ci][h.slot() & (chunkSize - 1)];
}

void
RequestPool::statsInto(StatGroup &stats) const
{
    stats.scalar("allocs").set(numAllocs);
    stats.scalar("releases").set(numReleases);
    stats.scalar("recycles").set(numRecycles);
    stats.scalar("chunk_growths").set(numGrowths);
    stats.scalar("peak_live").set(maxLive);
    stats.scalar("live").set(numLive);
    stats.scalar("capacity").set(slabSize);
}

void
RequestPool::serialize(snapshot::Archive &ar)
{
    VANS_REQUIRE("reqpool", 0, numLive == 0,
                 "snapshot with %zu live requests in the pool "
                 "(the world is not quiescent)",
                 numLive);
    ar.tag("reqpool");
    std::uint64_t slab = slabSize;
    ar(slab);
    if (ar.loading()) {
        VANS_REQUIRE("reqpool", 0, slab % chunkSize == 0,
                     "snapshot slab size %llu is not chunk-aligned",
                     static_cast<unsigned long long>(slab));
        // Grow (never shrink) to the captured capacity. The captured
        // recycle order below then makes the restored world hand out
        // the exact handle sequence the captured one would have.
        while (slabSize < slab) {
            chunks.push_back(std::make_unique<Cell[]>(chunkSize));
            slabSize += chunkSize;
        }
    }
    ar.seq(freeSlots);
    VANS_REQUIRE("reqpool", 0, freeSlots.size() == slabSize,
                 "free list holds %zu of %u slots at a snapshot",
                 freeSlots.size(), slabSize);
    for (std::uint32_t s = 0; s < slabSize; ++s)
        ar(cell(s).gen);
    ar(numAllocs, numReleases, numRecycles, numGrowths, maxLive);
}

} // namespace vans
