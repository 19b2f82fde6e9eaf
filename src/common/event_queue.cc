#include "common/event_queue.hh"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.hh"
#include "common/logging.hh"
#include "common/snapshot.hh"
#include "common/stats.hh"

namespace vans
{

void
EventQueue::growSlab()
{
    std::uint32_t index = slabSize % chunkNodes;
    if (index == 0) {
        // simlint-allow(hotpath: slab growth is amortized -- one
        // chunk allocation per 96 new peak-pending slots, and none
        // at all once the slab reaches the steady-state depth)
        chunks.push_back(std::make_unique<Node[]>(chunkNodes));
        // The far heap is bounded by the slot count, but vector
        // doubling would otherwise let it reallocate lazily long
        // after the slab stopped growing. Reserving here pins its
        // growth onto this amortized path, keeping schedule()/step()
        // allocation-free.
        far.reserve(slabSize + chunkNodes);
    }
    ++slabSize;
    freeHead = static_cast<std::uint32_t>(chunks.size() - 1)
                   << chunkShift |
               index;
    node(freeHead).next = noSlot;
}

inline void
EventQueue::wheelInsert(std::uint32_t slot, Node &n)
{
    auto b = static_cast<std::uint32_t>(n.when >> bucketShift) &
             (numBuckets - 1);
    Bucket &bucket = buckets[b];
    std::uint64_t bit = 1ull << (b & 63);
    std::uint64_t &word = occupied[b >> 6];
    if (!(word & bit)) {
        word |= bit;
        occupiedWords |= 1ull << (b >> 6);
        n.next = noSlot;
        bucket.head = bucket.tail = slot;
        return;
    }
    // seq only grows, so the new event goes after every event of its
    // tick: an append unless a later tick is already queued here.
    Node &tail = node(bucket.tail);
    if (n.when >= tail.when) {
        n.next = noSlot;
        tail.next = slot;
        bucket.tail = slot;
        return;
    }
    Node *prev = &node(bucket.head);
    if (n.when < prev->when) {
        n.next = bucket.head;
        bucket.head = slot;
        return;
    }
    while (node(prev->next).when <= n.when)
        prev = &node(prev->next);
    n.next = prev->next;
    prev->next = slot;
}

EventQueue::Node &
EventQueue::link(Tick when)
{
    // Causality: an event may never be scheduled in the past.
    VANS_REQUIRE("eventq", now, when >= now,
                 "event scheduled in the past (when=%llu now=%llu)",
                 static_cast<unsigned long long>(when),
                 static_cast<unsigned long long>(now));
    if (freeHead == noSlot)
        growSlab();
    std::uint32_t slot = freeHead;
    Node &n = node(slot);
    freeHead = n.next;
    n.when = when;
    n.seq = nextSeq++;
    // The horizon is a distance in buckets, not in ticks: every wheel
    // event then lies in one of the numBuckets buckets starting at
    // now's, so no bucket holds events a whole turn apart.
    if ((when >> bucketShift) - (now >> bucketShift) < numBuckets) {
        wheelInsert(slot, n);
    } else {
        far.push_back(Key{when, n.seq, slot});
        siftUp(far.size() - 1);
    }
    if (++numPending > maxPending)
        maxPending = numPending;
    return n;
}

inline std::uint32_t
EventQueue::firstBucket() const
{
    static_assert(numBuckets / 64 <= 64, "one summary word");
    if (!occupiedWords)
        return numBuckets;
    auto from = static_cast<std::uint32_t>(now >> bucketShift) &
                (numBuckets - 1);
    std::uint32_t w = from >> 6;
    if (std::uint64_t m = occupied[w] & (~0ull << (from & 63)))
        return (w << 6) | static_cast<std::uint32_t>(__builtin_ctzll(m));
    // Later words first; else wrap around to the lowest word, which
    // may be w itself holding buckets below from.
    std::uint64_t later = occupiedWords & (~1ull << w);
    auto next = static_cast<std::uint32_t>(
        __builtin_ctzll(later ? later : occupiedWords));
    return (next << 6) |
           static_cast<std::uint32_t>(__builtin_ctzll(occupied[next]));
}

void
EventQueue::siftUp(std::size_t i)
{
    Key k = far[i];
    while (i > 0) {
        std::size_t parent = (i - 1) / 2;
        if (!before(k, far[parent]))
            break;
        far[i] = far[parent];
        i = parent;
    }
    far[i] = k;
}

void
EventQueue::popFar()
{
    // Floyd's deletion: push the root hole down to a leaf along the
    // smaller-child path, drop the last key in, and sift it back up.
    Key last = far.back();
    far.pop_back();
    if (far.empty())
        return;
    std::size_t i = 0;
    std::size_t n = far.size();
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && before(far[child + 1], far[child]))
            ++child;
        far[i] = far[child];
        i = child;
    }
    far[i] = last;
    siftUp(i);
}

Tick
EventQueue::nextAt() const
{
    std::uint32_t b = firstBucket();
    Tick when = b != numBuckets ? node(buckets[b].head).when
                                : std::numeric_limits<Tick>::max();
    if (!far.empty() && far.front().when < when)
        when = far.front().when;
    return when;
}

bool
EventQueue::runNext(Tick limit)
{
    std::uint32_t slot;
    std::uint32_t b = firstBucket();
    if (b != numBuckets &&
        (far.empty() || before(node(buckets[b].head), far.front()))) {
        slot = buckets[b].head;
        Node &first = node(slot);
        if (first.when > limit)
            return false;
        buckets[b].head = first.next;
        if (first.next == noSlot) {
            std::uint64_t &word = occupied[b >> 6];
            word &= ~(1ull << (b & 63));
            if (!word)
                occupiedWords &= ~(1ull << (b >> 6));
        }
    } else if (!far.empty()) {
        if (far.front().when > limit)
            return false;
        slot = far.front().slot;
        popFar();
    } else {
        return false;
    }
    --numPending;

    Node &n = node(slot);
    // Execution order: ticks are non-decreasing, and same-tick
    // events preserve scheduling order (seq-FIFO) -- the property
    // every component handshake in the pipeline relies on.
    VANS_AUDIT("eventq", now,
               n.when > lastExecWhen ||
                   (n.when == lastExecWhen && n.seq > lastExecSeq) ||
                   numExecuted == 0,
               "event order broken: popped (when=%llu seq=%llu) "
               "after (when=%llu seq=%llu)",
               static_cast<unsigned long long>(n.when),
               static_cast<unsigned long long>(n.seq),
               static_cast<unsigned long long>(lastExecWhen),
               static_cast<unsigned long long>(lastExecSeq));
    lastExecWhen = n.when;
    lastExecSeq = n.seq;

    now = n.when;
    ++numExecuted;
    // Invoke in place: the chunked slab guarantees the node stays put
    // even if the callback schedules. The slot is freed only after
    // the invocation so a nested schedule cannot reuse it.
    n.cb();
    n.cb.reset();
    n.next = freeHead;
    freeHead = slot;
    return true;
}

bool
EventQueue::step()
{
    return runNext(std::numeric_limits<Tick>::max());
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
    while (runNext(limit)) {
    }
    if (now < limit && empty())
        return now;
    now = std::max(now, limit);
    return now;
}

void
EventQueue::serialize(snapshot::Archive &ar)
{
    VANS_REQUIRE("eventq", now, !ar.loading() || (empty() && now == 0),
                 "snapshot restore into a non-fresh queue "
                 "(now=%llu pending=%zu)",
                 static_cast<unsigned long long>(now), numPending);
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
