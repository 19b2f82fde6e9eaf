#include "common/event_queue.hh"

#include <utility>

#include "common/check.hh"
#include "common/logging.hh"
#include "common/snapshot.hh"
#include "common/stats.hh"

namespace vans
{

void
EventQueue::siftUp(std::size_t i)
{
    Key k = heap[i];
    while (i > 0) {
        std::size_t parent = (i - 1) / 2;
        if (!before(k, heap[parent]))
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = k;
}

std::uint32_t
EventQueue::acquireSlot()
{
    if (!freeSlots.empty()) {
        std::uint32_t slot = freeSlots.back();
        freeSlots.pop_back();
        return slot;
    }
    if ((slabSize & (chunkSize - 1)) == 0) {
        // simlint-allow(hotpath: slab growth is amortized -- one
        // chunk allocation per 128 new peak-pending slots, and none
        // at all once the slab reaches the steady-state depth)
        chunks.push_back(std::make_unique<Callback[]>(chunkSize));
        // Both the pending heap and the free list are bounded by the
        // slot count, but vector doubling would otherwise let them
        // reallocate lazily long after the slab stopped growing.
        // Reserving here pins all their growth onto this amortized
        // path, keeping schedule()/step() allocation-free.
        heap.reserve(slabSize + chunkSize);
        freeSlots.reserve(slabSize + chunkSize);
    }
    return slabSize++;
}

void
EventQueue::schedule(Tick when, Callback cb)
{
    // Causality: an event may never be scheduled in the past.
    VANS_REQUIRE("eventq", now, when >= now,
                 "event scheduled in the past (when=%llu now=%llu)",
                 static_cast<unsigned long long>(when),
                 static_cast<unsigned long long>(now));
    if (cb.heapAllocated())
        ++numHeapCallbacks;

    std::uint32_t slot = acquireSlot();
    cell(slot) = std::move(cb);

    heap.push_back(Key{when, nextSeq++, slot});
    siftUp(heap.size() - 1);
    if (heap.size() > maxPending)
        maxPending = heap.size();
}

bool
EventQueue::step()
{
    if (heap.empty())
        return false;

    Key k = heap.front();
    // Floyd's deletion: push the root hole down to a leaf along the
    // smaller-child path, drop the last key in, and sift it back up.
    // One comparison per level on the way down beats the classic
    // replace-root-and-sift-down on the deep, near-sorted heaps the
    // pipeline produces.
    Key last = heap.back();
    heap.pop_back();
    if (!heap.empty()) {
        std::size_t i = 0;
        std::size_t n = heap.size();
        for (;;) {
            std::size_t child = 2 * i + 1;
            if (child >= n)
                break;
            if (child + 1 < n &&
                before(heap[child + 1], heap[child]))
                ++child;
            heap[i] = heap[child];
            i = child;
        }
        heap[i] = last;
        siftUp(i);
    }

    // Execution order: ticks are non-decreasing, and same-tick
    // events preserve scheduling order (seq-FIFO) -- the property
    // every component handshake in the pipeline relies on.
    VANS_AUDIT("eventq", now,
               k.when > lastExecWhen ||
                   (k.when == lastExecWhen && k.seq > lastExecSeq) ||
                   numExecuted == 0,
               "event order broken: popped (when=%llu seq=%llu) "
               "after (when=%llu seq=%llu)",
               static_cast<unsigned long long>(k.when),
               static_cast<unsigned long long>(k.seq),
               static_cast<unsigned long long>(lastExecWhen),
               static_cast<unsigned long long>(lastExecSeq));
    lastExecWhen = k.when;
    lastExecSeq = k.seq;

    now = k.when;
    ++numExecuted;
    // Invoke in place: the chunked slab guarantees the cell stays
    // put even if the callback schedules. The slot is released only
    // after the invocation so a nested schedule cannot reuse it.
    Callback &cb = cell(k.slot);
    cb();
    cb.reset();
    freeSlots.push_back(k.slot);
    return true;
}

Tick
EventQueue::run()
{
    while (step()) {
    }
    return now;
}

Tick
EventQueue::runUntil(Tick limit)
{
    while (!heap.empty() && heap.front().when <= limit)
        step();
    if (now < limit && heap.empty())
        return now;
    now = std::max(now, limit);
    return now;
}

void
EventQueue::serialize(snapshot::Archive &ar)
{
    VANS_REQUIRE("eventq", now,
                 !ar.loading() || (heap.empty() && now == 0),
                 "snapshot restore into a non-fresh queue "
                 "(now=%llu pending=%zu)",
                 static_cast<unsigned long long>(now), heap.size());
    ar.tag("eventq");
    ar(now, nextSeq, numExecuted, lastExecWhen, lastExecSeq,
       numHeapCallbacks, maxPending);
}

void
EventQueue::statsInto(StatGroup &stats) const
{
    stats.scalar("events_scheduled").set(nextSeq);
    stats.scalar("events_executed").set(numExecuted);
    stats.scalar("peak_pending").set(maxPending);
    stats.scalar("callback_heap_spills").set(numHeapCallbacks);
    stats.scalar("slab_capacity").set(slabSize);
}

} // namespace vans
