#include "nvram/lsq.hh"

#include "common/check.hh"
#include "common/logging.hh"
#include "common/snapshot.hh"
#include "common/trace_event.hh"

namespace vans::nvram
{

Lsq::Lsq(EventQueue &eq, const NvramConfig &config, RmwBuffer &rmw_ref,
         const std::string &name)
    : eventq(eq), cfg(config), rmw(rmw_ref), statGroup(name)
{
    rmw.onSpaceFreed = [this] { drain(); };
}

void
Lsq::attachTracer(obs::TraceRecorder &rec,
                  const std::string &track_name)
{
    tracer = &rec;
    wiring.track = rec.track(track_name);
    wiring.drain = rec.label("group_drain");
    wiring.hazard = rec.label("raw_hazard");
    wiring.occupancy = rec.label("occupancy");
}

bool
Lsq::canAcceptWrite(Addr addr) const
{
    Addr block = blockOf(addr);
    auto it = groups.find(block);
    if (it != groups.end() && !it->second.draining) {
        unsigned lane = static_cast<unsigned>(
            (addr / cacheLineSize) % linesPerBlock());
        if (it->second.presentMask & (1u << lane))
            return true; // Merge onto a pending line: free.
    }
    return numEntries < cfg.lsqEntries;
}

void
Lsq::acceptWrite(Addr addr)
{
    Addr block = blockOf(addr);
    unsigned lane = static_cast<unsigned>(
        (addr / cacheLineSize) % linesPerBlock());
    Tick now = eventq.curTick();

    auto it = groups.find(block);
    if (it != groups.end() && !it->second.draining) {
        Group &g = it->second;
        if (g.presentMask & (1u << lane)) {
            writeMerges.inc();
        } else {
            g.presentMask |= (1u << lane);
            ++numEntries;
            writes.inc();
        }
        g.lastTouch = now;
        if (tracer) [[unlikely]]
            tracer->counter(wiring.track, wiring.occupancy, now,
                            static_cast<double>(numEntries));
        if (groupFull(g))
            scheduleDrainCheck(now);
        else
            scheduleDrainCheck(now + nsToTicks(cfg.lsqEpochNs));
        return;
    }

    // The caller (the iMC drain) must have probed canAcceptWrite:
    // the LSQ is the 4KB on-DIMM queue and never overcommits.
    VANS_REQUIRE("lsq", now, numEntries < cfg.lsqEntries,
                 "acceptWrite without room (%zu entries, capacity %u)",
                 numEntries, cfg.lsqEntries);

    Group &g = openGroup(block);
    g.presentMask |= (1u << lane);
    g.lastTouch = now;
    ++numEntries;
    writes.inc();
    if (tracer) [[unlikely]]
        tracer->counter(wiring.track, wiring.occupancy, now,
                        static_cast<double>(numEntries));
    if (groupFull(g))
        scheduleDrainCheck(now);
    else
        scheduleDrainCheck(now + nsToTicks(cfg.lsqEpochNs));

    // High-watermark pressure keeps the queue from deadlocking the
    // bus when random traffic never completes a block.
    if (numEntries >= cfg.lsqEntries - cfg.lsqEntries / 8)
        scheduleDrainCheck(now);
}

Lsq::Group &
Lsq::openGroup(Addr block)
{
    Tick now = eventq.curTick();
    if (!freeGroups.empty()) {
        auto nh = std::move(freeGroups.back());
        freeGroups.pop_back();
        nh.key() = block;
        Group &g = nh.mapped();
        g.block = block;
        g.presentMask = 0;
        g.oldest = now;
        g.lastTouch = now;
        g.sealed = false;
        g.draining = false;
        return groups.insert(std::move(nh)).position->second;
    }
    Group &g = groups[block];
    g.block = block;
    g.oldest = now;
    return g;
}

bool
Lsq::readProbe(Addr addr, DoneCallback hazard_done)
{
    Addr block = blockOf(addr);
    auto it = groups.find(block);
    if (it == groups.end())
        return false;
    unsigned lane = static_cast<unsigned>(
        (addr / cacheLineSize) % linesPerBlock());
    Group &g = it->second;
    if (!g.draining && !(g.presentMask & (1u << lane)))
        return false;

    // Read-after-write hazard: force the group out and hold the
    // read until the data reaches the RMW buffer.
    rawHazards.inc();
    if (tracer) [[unlikely]]
        tracer->instant(wiring.track, wiring.hazard, eventq.curTick(),
                        addr);
    g.sealed = true;
    g.hazardWaiters.push_back(std::move(hazard_done));
    scheduleDrainCheck(eventq.curTick());
    return true;
}

bool
Lsq::pendingLine(Addr addr) const
{
    auto it = groups.find(blockOf(addr));
    if (it == groups.end())
        return false;
    unsigned lane = static_cast<unsigned>(
        (addr / cacheLineSize) % linesPerBlock());
    const Group &g = it->second;
    return g.draining || (g.presentMask & (1u << lane)) != 0;
}

void
Lsq::seal()
{
    for (auto &kv : groups)
        kv.second.sealed = true;
    seals.inc();
    scheduleDrainCheck(eventq.curTick());
}

void
Lsq::scheduleDrainCheck(Tick when)
{
    when = std::max(when, eventq.curTick());
    if (drainCheckAt <= when)
        return;
    drainCheckAt = when;
    eventq.schedule(when, [this, when] {
        if (drainCheckAt == when) {
            drainCheckAt = never;
            drain();
        }
    });
}

std::size_t
Lsq::countedEntries() const
{
    std::size_t n = 0;
    for (const auto &kv : groups)
        n += popcount(kv.second.presentMask);
    return n;
}

void
Lsq::drain()
{
    Tick now = eventq.curTick();
    // The cached entry count is what admission control runs on; it
    // must always equal the recount over the present masks.
    VANS_AUDIT("lsq", now, numEntries == countedEntries(),
               "entry count %zu drifted from recount %zu", numEntries,
               countedEntries());
    Tick epoch = nsToTicks(cfg.lsqEpochNs);
    bool pressured =
        numEntries >= cfg.lsqEntries - cfg.lsqEntries / 8;

    Tick next_check = 0;
    // Oldest-first scan; groups is small (<= lsqEntries).
    Group *oldest_ready = nullptr;
    Group *oldest_any = nullptr;
    for (auto &kv : groups) {
        Group &g = kv.second;
        if (g.draining || g.presentMask == 0)
            continue;
        // Capacity pressure evicts the least-recently-touched
        // group: it is the least likely to complete its block.
        if (!oldest_any || g.lastTouch < oldest_any->lastTouch)
            oldest_any = &g;
        // The combining epoch is measured from the *last* touch:
        // actively rewritten groups stay and keep absorbing writes,
        // which is what keeps sub-LSQ working sets cheap (the 4KB
        // store plateau of Fig 5a).
        bool ready = groupFull(g) || g.sealed ||
                     now >= g.lastTouch + epoch;
        if (ready) {
            if (!oldest_ready || g.oldest < oldest_ready->oldest)
                oldest_ready = &g;
        } else {
            Tick t = g.lastTouch + epoch;
            if (!next_check || t < next_check)
                next_check = t;
        }
    }

    Group *pick = oldest_ready;
    if (!pick && pressured)
        pick = oldest_any;
    if (!pick) {
        if (next_check)
            scheduleDrainCheck(next_check);
        return;
    }

    if (!rmw.canAcceptWrite(pick->block))
        return; // rmw.onSpaceFreed re-enters drain().

    startGroupDrain(*pick);
}

void
Lsq::startGroupDrain(Group &g)
{
    unsigned lines = popcount(g.presentMask);
    std::uint32_t bytes = lines * cacheLineSize;
    if (bytes >= cfg.rmwLineBytes)
        combinedDrains.inc();
    else
        partialDrains.inc();
    drainLines.sample(lines);

    Addr block = g.block;
    auto waiters = std::move(g.hazardWaiters);

    // The group moves into a drain latch: it leaves the queue now so
    // concurrent writes to the same block open a fresh group, and
    // its entries free immediately for the bus to refill.
    numEntries -= lines;
    // Recycle the map node (and its waiter-vector capacity) instead
    // of freeing it: the next group open reuses it allocation-free.
    auto nh = groups.extract(block);
    nh.mapped().hazardWaiters.clear();
    freeGroups.push_back(std::move(nh));
    ++drainLatch;
    Tick drain_start = eventq.curTick();
    if (tracer) [[unlikely]]
        tracer->counter(wiring.track, wiring.occupancy, drain_start,
                        static_cast<double>(numEntries));

    rmw.acceptWrite(
        block, bytes,
        [this, block, drain_start,
         waiters = std::move(waiters)](Tick t) mutable {
            --drainLatch;
            if (tracer) [[unlikely]]
                tracer->spanAddr(wiring.track, wiring.drain,
                                 drain_start, t, block);
            for (auto &w : waiters) {
                if (w)
                    w(t);
            }
            drain();
        });
    if (onSpaceFreed)
        onSpaceFreed();
}

void
Lsq::serialize(snapshot::Archive &ar)
{
    VANS_REQUIRE("lsq", eventq.curTick(), quiescent(),
                 "snapshot of a non-quiescent LSQ");
    ar.tag("lsq");
    statGroup.serialize(ar);
}

} // namespace vans::nvram
