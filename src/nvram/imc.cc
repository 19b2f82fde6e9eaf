#include "nvram/imc.hh"

#include <algorithm>

#include "common/check.hh"
#include "common/logging.hh"
#include "common/snapshot.hh"
#include "common/trace_event.hh"

namespace vans::nvram
{

Imc::Imc(EventQueue &eq, RequestPool &req_pool,
         const NvramConfig &config, const std::string &name)
    : eventq(eq), pool(req_pool), cfg(config),
      statGroup(name, StatGroup::Listing::All)
{
    cfg.validate();
    channels.resize(cfg.numDimms);
    for (unsigned i = 0; i < cfg.numDimms; ++i) {
        Channel &ch = channels[i];
        ch.stats = std::make_unique<ChannelStats>(
            name + ".ch" + std::to_string(i));
        ch.dimm = std::make_unique<NvramDimm>(
            eventq, cfg, name + ".dimm" + std::to_string(i));
        if (cfg.memoryMode()) {
            // Memory mode: the DRAM cache interposes. LSQ space
            // freed resumes the cache's writeback forwarding; cache
            // writeback-window space freed resumes the WPQ drain.
            ch.dcache = std::make_unique<DramCache>(
                eventq, cfg, *ch.dimm,
                name + ".dcache" + std::to_string(i));
            ch.dimm->setWriteSpaceCallback(
                [dc = ch.dcache.get()] { dc->nvmSpaceFreed(); });
            ch.dcache->onSpaceFreed = [this, i] { wpqDrain(i); };
        } else {
            ch.dimm->setWriteSpaceCallback([this, i] { wpqDrain(i); });
        }
        ch.wpqLines.reserve(cfg.wpqEntries);
        ch.wpqKinds.reserve(cfg.wpqEntries);
    }
}

bool
Imc::wpqContains(const Channel &ch, Addr line)
{
    for (Addr l : ch.wpqLines) {
        if (l == line)
            return true;
    }
    return false;
}

std::uint8_t
Imc::writeKindOf(MemOp op)
{
    // Persist-kind stores must reach the DIMM even through the
    // volatile Memory-mode cache; a clflushopt also drops the
    // cached copy. Plain stores allocate write-back.
    switch (op) {
      case MemOp::Clflushopt:
        return DramCache::kWriteThrough | DramCache::kInvalidate;
      case MemOp::Clwb:
      case MemOp::WriteNT:
        return DramCache::kWriteThrough;
      default:
        return DramCache::kWriteBack;
    }
}

void
Imc::wpqKindMerge(Channel &ch, Addr line, std::uint8_t kind)
{
    for (std::size_t i = 0; i < ch.wpqLines.size(); ++i) {
        if (ch.wpqLines[i] == line) {
            ch.wpqKinds[i] |= kind;
            return;
        }
    }
}

void
Imc::attachTracer(obs::TraceRecorder &rec, const std::string &name)
{
    tracer = &rec;
    wiring.busRead = rec.label("bus_rd");
    wiring.busWrite = rec.label("bus_wr");
    wiring.busTracks.resize(channels.size());
    for (unsigned i = 0; i < channels.size(); ++i) {
        Channel &ch = channels[i];
        wiring.busTracks[i] =
            rec.track(name + ".ch" + std::to_string(i) + ".bus");
        ch.dimm->attachTracer(rec,
                              name + ".dimm" + std::to_string(i));
        if (ch.dcache) {
            ch.dcache->attachTracer(
                rec, name + ".dcache" + std::to_string(i));
        }
    }
}

unsigned
Imc::dimmOf(Addr addr) const
{
    VANS_REQUIRE("imc", eventq.curTick(),
                 addr < static_cast<Addr>(cfg.numDimms) *
                            cfg.dimmCapacity,
                 "address %llx beyond the %u-DIMM socket capacity",
                 static_cast<unsigned long long>(addr), cfg.numDimms);
    if (cfg.numDimms == 1)
        return 0;
    if (cfg.interleaved) {
        return static_cast<unsigned>(
            (addr / cfg.interleaveBytes) % cfg.numDimms);
    }
    return static_cast<unsigned>((addr / cfg.dimmCapacity) %
                                 cfg.numDimms);
}

Tick
Imc::busTransfer(Channel &ch, bool write, std::uint32_t bytes)
{
    Tick now = eventq.curTick();
    Tick start = std::max(now, ch.bus.freeAt);
    if (ch.bus.used && ch.bus.lastWasWrite != write) {
        start += nsToTicks(cfg.busTurnaroundNs);
        ch.stats->busTurnarounds.inc();
    }
    unsigned beats = (bytes + cacheLineSize - 1) / cacheLineSize;
    Tick occupancy = nsToTicks(cfg.busCmdNs) +
                     beats * nsToTicks(cfg.busDataPer64bNs);
    ch.bus.freeAt = start + occupancy;
    ch.bus.lastWasWrite = write;
    ch.bus.used = true;
    if (tracer) [[unlikely]] {
        auto ci = static_cast<std::size_t>(&ch - channels.data());
        tracer->span(wiring.busTracks[ci],
                     write ? wiring.busWrite : wiring.busRead, start,
                     start + occupancy);
    }
    return start + occupancy;
}

void
Imc::noteQueued(RequestHandle h)
{
    if (tracer) [[unlikely]]
        tracer->onQueued(pool.get(h), eventq.curTick());
    if (lifecycle)
        lifecycle->onQueued(pool.get(h));
}

void
Imc::noteServiced(RequestHandle h)
{
    if (tracer) [[unlikely]]
        tracer->onServiced(pool.get(h), eventq.curTick());
    if (lifecycle)
        lifecycle->onServiced(pool.get(h));
}

void
Imc::completeWrite(Channel &ch, RequestHandle h)
{
    if (persistTracking) [[unlikely]] {
        // WPQ acceptance IS the durability point: record the version
        // (request id) this line would carry after an ADR drain.
        Request &r = pool.get(h);
        Addr line = alignDown(r.addr, cacheLineSize);
        std::uint64_t &v = ch.adrVersions[line];
        if (r.id > v)
            v = r.id;
    }
    noteServiced(h);
    pool.get(h).complete(eventq.curTick());
}

void
Imc::issueWrite(RequestHandle h)
{
    writes.inc();
    Request &req = pool.get(h);
    unsigned ci = dimmOf(req.addr);
    Channel &ch = channels[ci];
    ++ch.pendingArrivals;
    ++ch.pendingWriteArrivals;
    // NT stores fill write-combining buffers; an sfence cutting the
    // run at a partial buffer pays the Empirical Guide's drain
    // penalty (see issueSfence).
    if (req.op == MemOp::WriteNT)
        wcFill += req.size;
    // Flush-induced writebacks leave the cache hierarchy, not the
    // store buffer: one extra one-way hop versus an NT store (the
    // Empirical Guide's clwb-vs-ntstore gap).
    double hop_ns = cfg.coreToImcNs;
    if (req.op == MemOp::Clwb || req.op == MemOp::Clflushopt)
        hop_ns += cfg.clwbExtraNs;
    // Core -> uncore -> iMC pipeline before the WPQ probe.
    eventq.schedule(
        eventq.curTick() + nsToTicks(hop_ns),
        [this, ci, h] {
            Channel &c = channels[ci];
            --c.pendingArrivals;
            --c.pendingWriteArrivals;
            Addr line = alignDown(pool.get(h).addr, cacheLineSize);
            std::uint8_t kind = writeKindOf(pool.get(h).op);
            noteQueued(h);

            if (wpqContains(c, line)) {
                // Merge into the pending entry: already in ADR. The
                // merged data inherits the strongest write kind.
                c.stats->wpqMerges.inc();
                wpqKindMerge(c, line, kind);
                completeWrite(c, h);
                return;
            }
            if (c.wpqLines.size() < cfg.wpqEntries) {
                wpqInsert(c, line, kind, h);
                wpqDrain(ci);
                return;
            }
            // WPQ full: the store stalls until a slot frees.
            c.stats->wpqStalls.inc();
            c.wpqWaiting.push_back(h);
            wpqDrain(ci);
        });
}

void
Imc::wpqInsert(Channel &ch, Addr line, std::uint8_t kind,
               RequestHandle h)
{
    // The WPQ is the 512B ADR domain: it must never stretch beyond
    // its configured 8 x 64B slots.
    VANS_INVARIANT("imc.wpq", eventq.curTick(),
                   ch.wpqLines.size() < cfg.wpqEntries,
                   "WPQ overflow: %zu lines, capacity %u",
                   ch.wpqLines.size(), cfg.wpqEntries);
    ch.wpqLines.push_back(line);
    ch.wpqKinds.push_back(kind);
    ch.wpqFifo.push_back(line);
    completeWrite(ch, h);
}

void
Imc::wpqDrain(unsigned ci)
{
    Channel &ch = channels[ci];
    if (ch.wpqDrainBusy || ch.wpqFifo.empty())
        return;
    Addr line = ch.wpqFifo.front();
    // Memory mode drains into the DRAM cache, whose writeback window
    // provides the backpressure; App Direct probes the DIMM LSQ.
    bool can = ch.dcache ? ch.dcache->canAcceptWrite()
                         : ch.dimm->canAcceptWrite(line);
    if (!can)
        return; // Resumed by the write-space callback.

    ch.wpqDrainBusy = true;
    ch.wpqFifo.pop_front();
    Tick arrival = busTransfer(ch, true, cacheLineSize);
    eventq.schedule(arrival, [this, ci, line] {
        Channel &c = channels[ci];
        // The write kind is read at bus-arrival time, not drain
        // start: stores can merge into a draining line mid-flight
        // and must still strengthen its kind.
        std::uint8_t kind = DramCache::kWriteBack;
        for (std::size_t i = 0; i < c.wpqLines.size(); ++i) {
            if (c.wpqLines[i] == line) {
                // Membership only: order lives in wpqFifo.
                kind = c.wpqKinds[i];
                c.wpqLines[i] = c.wpqLines.back();
                c.wpqLines.pop_back();
                c.wpqKinds[i] = c.wpqKinds.back();
                c.wpqKinds.pop_back();
                break;
            }
        }
        if (c.dcache) {
            c.dcache->accept(line, kind);
        } else {
            // The drain only started because the DIMM had LSQ room;
            // the slot must still be there when the line arrives.
            VANS_REQUIRE("imc.wpq", eventq.curTick(),
                         c.dimm->canAcceptWrite(line),
                         "WPQ drained into a full DIMM LSQ (line "
                         "%llx)",
                         static_cast<unsigned long long>(line));
            c.dimm->acceptWrite(line);
        }

        // Reads held on this WPQ line may now proceed to the DIMM.
        // The released set is staged in the channel's scratch buffer
        // (capacity retained across drains) because startRead only
        // schedules work -- it never re-enters this drain. The flat
        // hazard vector preserves insertion order per line, exactly
        // like the multimap it replaced.
        c.hazardScratch.clear();
        std::size_t kept = 0;
        for (std::size_t i = 0; i < c.wpqReadHazards.size(); ++i) {
            if (c.wpqReadHazards[i].first == line)
                c.hazardScratch.push_back(c.wpqReadHazards[i].second);
            else
                c.wpqReadHazards[kept++] = c.wpqReadHazards[i];
        }
        c.wpqReadHazards.resize(kept);
        for (RequestHandle r : c.hazardScratch)
            startRead(ci, r);

        // Admit a waiting store into the freed slot.
        if (!c.wpqWaiting.empty()) {
            RequestHandle w = c.wpqWaiting.front();
            c.wpqWaiting.pop_front();
            Addr wline = alignDown(pool.get(w).addr, cacheLineSize);
            std::uint8_t wkind = writeKindOf(pool.get(w).op);
            if (wpqContains(c, wline)) {
                c.stats->wpqMerges.inc();
                wpqKindMerge(c, wline, wkind);
                completeWrite(c, w);
            } else {
                wpqInsert(c, wline, wkind, w);
            }
        }

        // Request/grant handshake paces the next drain.
        eventq.scheduleAfter(nsToTicks(cfg.wpqGrantNs), [this, ci] {
            channels[ci].wpqDrainBusy = false;
            wpqDrain(ci);
        });
    });
}

void
Imc::issueRead(RequestHandle h)
{
    reads.inc();
    unsigned ci = dimmOf(pool.get(h).addr);
    Channel &ch = channels[ci];
    ++ch.pendingArrivals;
    eventq.schedule(
        eventq.curTick() + nsToTicks(cfg.coreToImcNs),
        [this, ci, h] {
            Channel &c = channels[ci];
            --c.pendingArrivals;
            Addr line = alignDown(pool.get(h).addr, cacheLineSize);
            noteQueued(h);

            // Read-after-write ordering at the iMC: a read that hits
            // a pending WPQ line waits for that line to drain (NT
            // loads do not forward from the WPQ -- section III-C's
            // RaW behaviour).
            if (wpqContains(c, line)) {
                c.stats->wpqReadHazards.inc();
                c.wpqReadHazards.emplace_back(line, h);
                return;
            }
            startRead(ci, h);
        });
}

void
Imc::startRead(unsigned ci, RequestHandle h)
{
    Channel &ch = channels[ci];
    if (ch.rpqInFlight >= cfg.rpqEntries) {
        ch.rpqWaiting.push_back(h);
        return;
    }
    ++ch.rpqInFlight;
    VANS_INVARIANT("imc.rpq", eventq.curTick(),
                   ch.rpqInFlight <= cfg.rpqEntries,
                   "RPQ overflow: %u in flight, capacity %u",
                   ch.rpqInFlight, cfg.rpqEntries);

    // Command phase over the bus.
    Tick cmd_arrival = busTransfer(ch, false, 0);
    eventq.schedule(cmd_arrival, [this, ci, h] {
        Channel &c = channels[ci];
        auto done = [this, ci, h](Tick) {
            // Data staged at the DIMM: grant + data return phase.
            noteServiced(h);
            Tick data_arrival =
                busTransfer(channels[ci], false, pool.get(h).size);
            Tick at_core = data_arrival + nsToTicks(cfg.coreToImcNs);
            // One event completes the read at the core and frees the
            // RPQ slot. The completion may release the handle, so the
            // RPQ bookkeeping never touches the request afterwards.
            eventq.schedule(at_core, [this, ci, h, at_core] {
                Channel &c3 = channels[ci];
                pool.get(h).complete(at_core);
                --c3.rpqInFlight;
                if (!c3.rpqWaiting.empty()) {
                    RequestHandle next = c3.rpqWaiting.front();
                    c3.rpqWaiting.pop_front();
                    startRead(ci, next);
                }
            });
        };
        // Memory mode: the DRAM cache services the line (DRAM-hit
        // latency or NVM-miss fetch); App Direct reads the DIMM.
        if (c.dcache)
            c.dcache->read(pool.get(h).addr, std::move(done));
        else
            c.dimm->read(pool.get(h).addr, std::move(done));
    });
}

void
Imc::issueFence(RequestHandle h)
{
    fences.inc();
    noteQueued(h);
    pendingFences.push_back(h);
    checkFences();
}

void
Imc::checkFences()
{
    if (pendingFences.empty())
        return;

    // Seal only once the WPQs have drained: sealing earlier would
    // split 256B blocks whose lines are still crossing the bus into
    // separate partial drains, which the real fence does not do.
    // In Memory mode the cache's writeback forwarding counts as part
    // of the write pipeline: seal only after it stops handing lines
    // to the DIMM, and complete only once those lines are media-done.
    bool wpq_quiet = true;
    for (const auto &ch : channels) {
        if (!ch.wpqLines.empty() || !ch.wpqWaiting.empty() ||
            ch.wpqDrainBusy ||
            (ch.dcache && !ch.dcache->writeQuiescent())) {
            wpq_quiet = false;
            break;
        }
    }
    if (wpq_quiet) {
        for (auto &ch : channels)
            ch.dimm->seal();
    }

    bool quiet = wpq_quiet;
    for (const auto &ch : channels) {
        if (!ch.wpqLines.empty() || !ch.wpqWaiting.empty() ||
            ch.wpqDrainBusy ||
            (ch.dcache && !ch.dcache->writeQuiescent()) ||
            !ch.dimm->writeQuiescent()) {
            quiet = false;
            break;
        }
    }
    if (quiet) {
        Tick now = eventq.curTick();
        for (RequestHandle f : pendingFences) {
            noteServiced(f);
            // complete() may release the handle (issuer callback);
            // the request is not touched again after this call.
            pool.get(f).complete(now);
        }
        pendingFences.clear();
        return;
    }
    if (!fencePollScheduled) {
        fencePollScheduled = true;
        eventq.scheduleAfter(nsToTicks(20), [this] {
            fencePollScheduled = false;
            checkFences();
        });
    }
}

void
Imc::issueSfence(RequestHandle h)
{
    sfences.inc();
    noteQueued(h);
    Tick ready = eventq.curTick();
    // Sfence drains the NT write-combining buffers. A run cut at a
    // partial cfg.wcBufferBytes buffer pays the partial-drain charge
    // once -- the reason small NT stores lose to cached writes below
    // the wcBufferBytes crossover.
    if (wcFill % cfg.wcBufferBytes != 0) {
        ready += nsToTicks(cfg.wcPartialDrainNs);
        wcPartialDrains.inc();
    }
    wcFill = 0;
    pendingSfences.push_back({h, ready});
    checkSfences();
}

void
Imc::checkSfences()
{
    if (pendingSfences.empty())
        return;

    // The sfence condition is strictly weaker than the fence's: every
    // prior write accepted into a WPQ (ADR reached) -- no WPQ drain,
    // no DIMM seal, no write-pipeline quiescence.
    bool adr_quiet = true;
    for (const auto &ch : channels) {
        if (ch.pendingWriteArrivals != 0 || !ch.wpqWaiting.empty()) {
            adr_quiet = false;
            break;
        }
    }
    if (adr_quiet) {
        Tick now = eventq.curTick();
        std::size_t kept = 0;
        for (PendingSfence &s : pendingSfences) {
            if (s.readyAt <= now) {
                noteServiced(s.h);
                // complete() may release the handle; never touched
                // again after this call.
                pool.get(s.h).complete(now);
            } else {
                // Still serving the partial WC-drain charge.
                pendingSfences[kept++] = s;
            }
        }
        pendingSfences.resize(kept);
        if (pendingSfences.empty())
            return;
    }
    if (!sfencePollScheduled) {
        sfencePollScheduled = true;
        eventq.scheduleAfter(nsToTicks(20), [this] {
            sfencePollScheduled = false;
            checkSfences();
        });
    }
}

void
Imc::durableLines(
    std::vector<std::pair<Addr, std::uint64_t>> &out) const
{
    VANS_REQUIRE("imc", eventq.curTick(), persistTracking,
                 "durableLines without persist tracking enabled");
    out.clear();
    // Interleaving routes each line to exactly one channel, so the
    // per-channel maps are disjoint; a sort gives the deterministic
    // merged view.
    for (const Channel &ch : channels) {
        for (const auto &[line, version] : ch.adrVersions)
            out.emplace_back(line, version);
    }
    std::sort(out.begin(), out.end());
}

void
Imc::seedDurable(Addr line, std::uint64_t version)
{
    VANS_REQUIRE("imc", eventq.curTick(), persistTracking,
                 "seedDurable without persist tracking enabled");
    Channel &ch = channels[dimmOf(line)];
    std::uint64_t &v = ch.adrVersions[line];
    if (version > v)
        v = version;
}

bool
Imc::quiescent() const
{
    if (!pendingFences.empty() || fencePollScheduled)
        return false;
    if (!pendingSfences.empty() || sfencePollScheduled)
        return false;
    for (const auto &ch : channels) {
        if (ch.pendingArrivals != 0 || ch.pendingWriteArrivals != 0 ||
            !ch.wpqLines.empty() || !ch.wpqKinds.empty() ||
            !ch.wpqFifo.empty() || !ch.wpqWaiting.empty() ||
            ch.wpqDrainBusy || !ch.wpqReadHazards.empty() ||
            ch.rpqInFlight != 0 || !ch.rpqWaiting.empty() ||
            (ch.dcache && !ch.dcache->quiescent())) {
            return false;
        }
    }
    // The DIMM probes walk the RMW entry map, so they run only once
    // every channel front-end is idle. MemorySystem::drain polls this
    // after every event, and a drain spends most of its events on
    // work some front-end or AIT still holds.
    for (const auto &ch : channels) {
        if (!ch.dimm->quiescent())
            return false;
    }
    return true;
}

void
Imc::serialize(snapshot::Archive &ar)
{
    VANS_REQUIRE("imc", eventq.curTick(), quiescent(),
                 "snapshot of a non-quiescent iMC");
    ar.tag("imc");
    ar.count("channel", channels.size());
    ar(persistTracking, wcFill);
    for (Channel &ch : channels) {
        ar(ch.bus.freeAt, ch.bus.lastWasWrite, ch.bus.used);
        ch.stats->group.serialize(ar);
        ch.dimm->serialize(ar);
        if (ch.dcache)
            ch.dcache->serialize(ar);
        // Durable state survives snapshots like it survives power
        // cuts.
        ar.sortedMap(ch.adrVersions);
    }
    statGroup.serialize(ar);
}

} // namespace vans::nvram
