#include "nvram/rmw_buffer.hh"

#include "common/check.hh"
#include "common/logging.hh"
#include "common/snapshot.hh"
#include "common/trace_event.hh"

namespace vans::nvram
{

RmwBuffer::RmwBuffer(EventQueue &eq, const NvramConfig &config,
                     Ait &ait_ref, const std::string &name)
    : eventq(eq), cfg(config), ait(ait_ref), statGroup(name)
{
    ait.onWriteSpaceFreed = [this] { drainIssue(); };
}

void
RmwBuffer::attachTracer(obs::TraceRecorder &rec,
                        const std::string &track_name)
{
    tracer = &rec;
    wiring.track = rec.track(track_name);
    wiring.fill = rec.label("rmw_fill");
    wiring.readMiss = rec.label("read_miss");
    wiring.occupancy = rec.label("occupancy");
}

RmwBuffer::Entry *
RmwBuffer::find(Addr line)
{
    auto it = entries.find(line);
    return it == entries.end() ? nullptr : &it->second;
}

void
RmwBuffer::markClean(Entry &e)
{
    e.state = State::Clean;
    ++cleanCount;
    if (!e.inCleanLru) {
        cleanLru.push_front(e.line);
        e.inCleanLru = true;
    }
}

bool
RmwBuffer::makeRoom()
{
    if (entries.size() < cfg.rmwEntries)
        return true;
    // Evict the least recently used clean entry; lines that were
    // re-dirtied since joining the list are skipped lazily.
    while (!cleanLru.empty()) {
        Addr victim = cleanLru.back();
        cleanLru.pop_back();
        auto it = entries.find(victim);
        if (it != entries.end() &&
            it->second.state == State::Clean) {
            --cleanCount;
            entries.erase(it);
            evictions.inc();
            return true;
        }
        if (it != entries.end())
            it->second.inCleanLru = false;
    }
    return false;
}

void
RmwBuffer::read(Addr addr, DoneCallback done)
{
    // State changes are synchronous; the SRAM access time lands on
    // the callback. This keeps admission checks race-free.
    Addr line = lineOf(addr);
    Tick access = nsToTicks(cfg.rmwAccessNs);

    Entry *e = find(line);
    if (e) {
        readHits.inc();
        if (e->state == State::Filling) {
            // Fill already in flight: piggyback on it.
            e->mergeWaiters.push_back(std::move(done));
            return;
        }
        eventq.scheduleAfter(access,
                             [done = std::move(done), this]() mutable {
                                 if (done)
                                     done(eventq.curTick());
                             });
        return;
    }

    readMisses.inc();
    if (tracer) [[unlikely]]
        tracer->instant(wiring.track, wiring.readMiss, eventq.curTick(),
                        addr);
    if (!makeRoom()) {
        // All entries hold staged writes: serve the read from the
        // AIT without caching rather than stalling it.
        readBypass.inc();
        eventq.scheduleAfter(access, [this, line,
                                      done = std::move(done)]() mutable {
            ait.read(line, std::move(done));
        });
        return;
    }
    Entry &ne = entries[line];
    ne.line = line;
    ne.state = State::Filling;
    ne.mergeWaiters.push_back(std::move(done));
    eventq.scheduleAfter(access, [this, line] {
        ait.read(line, [this, line](Tick t) {
            Entry *e2 = find(line);
            if (!e2)
                return;
            auto waiters = std::move(e2->mergeWaiters);
            e2->mergeWaiters.clear();
            if (e2->dirtyBytes > 0) {
                // A write merged while the fill was in flight.
                e2->state = State::Dirty;
                enqueueIssue(line);
            } else {
                markClean(*e2);
            }
            for (auto &w : waiters) {
                if (w)
                    w(t);
            }
        });
    });
}

bool
RmwBuffer::canAcceptWrite(Addr addr) const
{
    Addr line = alignDown(addr, cfg.rmwLineBytes);
    auto it = entries.find(line);
    if (it != entries.end()) {
        // Merging is only possible while the fill is still open or
        // the line is clean; a line with a staged write in flight
        // makes the writer wait -- the RMW buffer stages, it does
        // not coalesce indefinitely (this is why write working sets
        // larger than the LSQ pay full cost, Fig 5a).
        return it->second.state == State::Filling ||
               it->second.state == State::Clean;
    }
    if (writeFillsInFlight > 0)
        return false; // FIFO staging: wait for the open fill.
    if (entries.size() < cfg.rmwEntries)
        return true;
    return cleanCount > 0; // A clean victim can make room.
}

void
RmwBuffer::acceptWrite(Addr addr, std::uint32_t bytes,
                       DoneCallback done)
{
    Addr line = lineOf(addr);
    Tick access = nsToTicks(cfg.rmwAccessNs);
    writes.inc();

    // The cached clean count drives both eviction and admission; it
    // must match a recount, and the buffer must hold its 64 x 256B.
    VANS_AUDIT("rmw", eventq.curTick(),
               cleanCount == countedClean() &&
                   entries.size() <= cfg.rmwEntries,
               "clean count %zu vs recount %zu, %zu lines (cap %u)",
               cleanCount, countedClean(), entries.size(),
               cfg.rmwEntries);

    auto finish = [this, access, done = std::move(done)]() mutable {
        eventq.scheduleAfter(access, [this,
                                      done = std::move(done)]() mutable {
            if (done)
                done(eventq.curTick());
        });
    };

    Entry *e = find(line);
    if (e) {
        writeMerges.inc();
        // Staged lines (Dirty / IssuedWait) make the writer wait --
        // canAcceptWrite must have rejected this call.
        VANS_REQUIRE("rmw", eventq.curTick(),
                     e->state == State::Clean ||
                         e->state == State::Filling,
                     "write merged into staged line %llx (state %u)",
                     static_cast<unsigned long long>(line),
                     static_cast<unsigned>(e->state));
        e->dirtyBytes += bytes;
        switch (e->state) {
          case State::Clean:
            e->state = State::Dirty;
            --cleanCount;
            enqueueIssue(line);
            break;
          case State::Filling:
          case State::Dirty:
          case State::IssuedWait:
            break; // Filling combines; the rest rejected above.
        }
        finish();
        return;
    }

    bool made_room = makeRoom();
    VANS_REQUIRE("rmw", eventq.curTick(), made_room,
                 "acceptWrite without room (%zu lines, %zu clean)",
                 entries.size(), cleanCount);

    Entry &ne = entries[line];
    ne.line = line;
    ne.dirtyBytes = bytes;
    ne.writeStaging = true;
    if (tracer) [[unlikely]]
        tracer->counter(wiring.track, wiring.occupancy, eventq.curTick(),
                        static_cast<double>(entries.size()));
    if (bytes >= cfg.rmwLineBytes) {
        // Full-line write: no fill needed (this is what LSQ write
        // combining buys).
        ne.state = State::Dirty;
        enqueueIssue(line);
    } else {
        // Sub-256B write: the eponymous read-modify-write.
        rmwFills.inc();
        ne.state = State::Filling;
        ++writeFillsInFlight;
        Tick fill_start = eventq.curTick();
        eventq.scheduleAfter(access, [this, line, fill_start] {
            ait.readForFill(line, [this, line, fill_start](Tick t) {
                --writeFillsInFlight;
                if (tracer) [[unlikely]]
                    tracer->spanAddr(wiring.track, wiring.fill, fill_start,
                                     t, line);
                Entry *e2 = find(line);
                if (e2 && e2->state == State::Filling) {
                    auto waiters = std::move(e2->mergeWaiters);
                    e2->mergeWaiters.clear();
                    e2->state = State::Dirty;
                    enqueueIssue(line);
                    for (auto &w : waiters) {
                        if (w)
                            w(eventq.curTick());
                    }
                }
                if (onSpaceFreed)
                    onSpaceFreed();
            });
        });
    }
    finish();
}

void
RmwBuffer::enqueueIssue(Addr line)
{
    issueFifo.push_back(line);
    drainIssue();
}

void
RmwBuffer::drainIssue()
{
    if (issueBusy)
        return;
    while (!issueFifo.empty()) {
        Addr line = issueFifo.front();
        Entry *e = find(line);
        if (!e || e->state != State::Dirty) {
            issueFifo.pop_front();
            continue;
        }
        if (!ait.canAcceptWrite())
            return; // ait.onWriteSpaceFreed re-enters drainIssue().
        issueFifo.pop_front();
        e->state = State::IssuedWait;
        issueBusy = true;
        ait.acceptWrite(line, [this, line](Tick t) {
            issueBusy = false;
            Entry *e2 = find(line);
            if (e2)
                finishWrite(*e2, t);
            if (onSpaceFreed)
                onSpaceFreed();
            drainIssue();
        });
    }
}

void
RmwBuffer::finishWrite(Entry &e, Tick)
{
    e.dirtyBytes = 0;
    if (e.writeStaging) {
        // Pure staging entry: free the slot once the AIT has the
        // data. Retaining it would let the RMW buffer coalesce
        // write working sets up to its full 16KB, which the
        // measured store curve (inflection at the 4KB LSQ, Fig 5a)
        // shows the real device does not do.
        entries.erase(e.line);
        if (tracer) [[unlikely]]
            tracer->counter(wiring.track, wiring.occupancy,
                            eventq.curTick(),
                            static_cast<double>(entries.size()));
        return;
    }
    markClean(e);
}

std::size_t
RmwBuffer::countedClean() const
{
    std::size_t n = 0;
    for (const auto &kv : entries) {
        if (kv.second.state == State::Clean)
            ++n;
    }
    return n;
}

bool
RmwBuffer::writeQuiescent() const
{
    if (!issueFifo.empty() || issueBusy)
        return false;
    for (const auto &kv : entries) {
        const Entry &e = kv.second;
        if (e.state == State::Dirty || e.state == State::IssuedWait ||
            (e.state == State::Filling && e.dirtyBytes > 0)) {
            return false;
        }
    }
    return true;
}

bool
RmwBuffer::quiescent() const
{
    if (!writeQuiescent() || writeFillsInFlight != 0)
        return false;
    for (const auto &kv : entries) {
        const Entry &e = kv.second;
        if (e.state != State::Clean || e.dirtyBytes != 0 ||
            !e.mergeWaiters.empty())
            return false;
    }
    return true;
}

void
RmwBuffer::serialize(snapshot::Archive &ar)
{
    VANS_REQUIRE("rmw", eventq.curTick(), quiescent(),
                 "snapshot of a non-quiescent RMW buffer");
    ar.tag("rmw");
    // The clean-LRU sequence is serialized verbatim (it may hold
    // stale addrs -- that laziness is model behavior and must
    // survive).
    ar.sortedMap(entries, [&](Addr line, Entry &e) {
        if (ar.loading())
            e.line = line;
        ar(e.writeStaging, e.inCleanLru);
    });
    VANS_REQUIRE("rmw", eventq.curTick(),
                 entries.size() <= cfg.rmwEntries,
                 "snapshot holds %zu RMW entries, more than "
                 "rmw_entries (%u)",
                 entries.size(), cfg.rmwEntries);
    ar.seq(cleanLru);
    ar(cleanCount);
    statGroup.serialize(ar);
}

} // namespace vans::nvram
