#include "nvram/ait.hh"

#include <vector>

#include "common/check.hh"
#include "common/logging.hh"
#include "common/snapshot.hh"
#include "common/trace_event.hh"

namespace vans::nvram
{

namespace
{

dram::DramGeometry
onDimmDramGeometry()
{
    dram::DramGeometry g;
    g.capacityBytes = 512ull << 20; // Table V: 512MB DDR4.
    g.rowBytes = 8192;
    return g;
}

/**
 * An LRU's keys, most recent first. A restore re-inserts them least
 * recent first, which rebuilds the recency order, and REQUIREs that
 * @p lru (sized by @p what) holds them all.
 */
void
serializeLru(snapshot::Archive &ar, FlatLru &lru, const char *what)
{
    std::vector<Addr> order;
    if (!ar.loading())
        lru.forEachMruToLru([&order](Addr page) { order.push_back(page); });
    ar.seq(order);
    if (!ar.loading())
        return;
    Addr evicted = 0;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        VANS_REQUIRE("ait", 0, !lru.insert(*it, evicted),
                     "snapshot holds %zu pages, more than %s (%zu)",
                     order.size(), what, lru.capacity());
    }
}

} // namespace

Ait::Ait(EventQueue &eq, const NvramConfig &config,
         const std::string &name)
    : eventq(eq),
      cfg(config),
      media(eq, config),
      wear(eq, config),
      dram(eq, config.dramTiming, onDimmDramGeometry(),
           dram::SchedPolicy::FRFCFS, dram::MapScheme::RowBankCol,
           name + ".dram"),
      bufLru(config.aitBufEntries),
      tlc(tlcCapacity),
      statGroup(name)
{}

void
Ait::attachTracer(obs::TraceRecorder &rec,
                  const std::string &track_name)
{
    tracer = &rec;
    wiring.track = rec.track(track_name);
    wiring.miss = rec.label("miss_fetch");
    wiring.stall = rec.label("wear_stall");
    media.attachTracer(rec, track_name + ".media");
    wear.attachTracer(rec, track_name + ".wear");
    dram.attachTracer(rec, track_name + ".dram");
}

Addr
Ait::bufferSlotAddr(Addr addr) const
{
    // Buffer slots occupy the bottom of the on-DIMM DRAM; the slot
    // index is derived from the page so repeated accesses map to
    // stable DRAM rows (the timing, not the content, matters).
    Addr page = pageOf(addr);
    Addr slot = (page / cfg.aitLineBytes) % cfg.aitBufEntries;
    return slot * cfg.aitLineBytes + (addr % cfg.aitLineBytes);
}

Addr
Ait::tableEntryAddr(Addr page) const
{
    // Table region sits above the buffer region in on-DIMM DRAM.
    Addr table_base =
        static_cast<Addr>(cfg.aitBufEntries) * cfg.aitLineBytes;
    Addr index = (page / cfg.aitLineBytes) % (1ull << 22);
    return table_base + index * cacheLineSize;
}

Addr
Ait::mediaAddrOf(Addr addr) const
{
    // Identity map: migrations move data between physical media
    // locations, but for timing purposes only the partition spread
    // matters, which the identity map preserves.
    return addr;
}

bool
Ait::tableCacheHit(Addr page)
{
    return tlc.touch(page);
}

void
Ait::tableCacheInsert(Addr page)
{
    if (tlc.contains(page))
        return;
    Addr evicted = 0;
    tlc.insert(page, evicted);
}

bool
Ait::bufferHit(Addr page)
{
    return bufLru.touch(page);
}

void
Ait::installPage(Addr page)
{
    if (bufLru.contains(page))
        return;
    // Write-through buffer: the victim is never dirty, drop it.
    Addr evicted = 0;
    if (bufLru.insert(page, evicted))
        bufEvictions.inc();
    // The resident set is bounded by the 4096 x 4KB (16MB) on-DIMM
    // DRAM budget.
    VANS_AUDIT("ait", eventq.curTick(),
               bufLru.size() <= cfg.aitBufEntries,
               "buffer books diverged: lru %zu, cap %u",
               bufLru.size(), cfg.aitBufEntries);
}

void
Ait::read(Addr addr, DoneCallback done)
{
    Addr page = pageOf(addr);
    Tick tag_done = eventq.curTick() + nsToTicks(cfg.aitTagNs);
    reads.inc();

    if (preTranslationFetch) {
        // One extra on-DIMM DRAM access fetches the Pre-translation
        // entry linked from the AIT entry (paper Fig 13b step 2-3).
        // The hook member is consulted again at completion time (it
        // is installed once at setup and never swapped mid-run).
        Addr pt_addr = tableEntryAddr(page) + 8;
        eventq.schedule(tag_done, [this, pt_addr, addr] {
            dram.access(pt_addr, false, cacheLineSize,
                        [this, addr](Tick t) {
                            if (preTranslationFetch)
                                preTranslationFetch(addr, t);
                        });
        });
    }

    if (bufferHit(page)) {
        bufHits.inc();
        // Even a buffer hit consults the translation entry (wear
        // records live there): one extra on-DIMM DRAM access unless
        // the translation cache has the page, then the 256B data
        // read.
        bool tlc_hit = tableCacheHit(page);
        eventq.schedule(tag_done, [this, addr, page, tlc_hit,
                                   done = std::move(done)]() mutable {
            if (tlc_hit) {
                dram.access(bufferSlotAddr(addr), false,
                            cfg.rmwLineBytes, std::move(done));
                return;
            }
            dram.access(tableEntryAddr(page), false, cacheLineSize,
                        [this, addr, page,
                         done = std::move(done)](Tick) mutable {
                            tableCacheInsert(page);
                            dram.access(bufferSlotAddr(addr), false,
                                        cfg.rmwLineBytes,
                                        std::move(done));
                        });
        });
        return;
    }

    bufMisses.inc();
    Tick t0 = eventq.curTick();
    eventq.schedule(tag_done, [this, addr, page, t0,
                               done = std::move(done)]() mutable {
        startMissFetch(addr, page, t0, std::move(done));
    });
}

void
Ait::startMissFetch(Addr addr, Addr page, Tick t0, DoneCallback done)
{
    // Miss: translation lookup (DRAM read), then fetch the critical
    // chunk from media; the rest of the 4KB line fills in the
    // background while the requester proceeds. New misses throttle
    // when the fill engine backs up -- the media must actually
    // absorb 4KB per miss (this is the AIT read amplification).
    if (media.fillBacklog() > 24) {
        fillThrottle.inc();
        eventq.scheduleAfter(
            nsToTicks(cfg.mediaReadNs),
            [this, addr, page, t0,
             done = std::move(done)]() mutable {
                startMissFetch(addr, page, t0, std::move(done));
            });
        return;
    }
    dram.access(
        tableEntryAddr(page), false, cacheLineSize,
        [this, addr, page, t0,
         done = std::move(done)](Tick t1) mutable {
            missTableNs.sample(ticksToNs(t1 - t0));
            tableCacheInsert(page);
            Addr crit = alignDown(mediaAddrOf(addr),
                                  cfg.mediaChunkBytes);
            media.readChunk(
                crit, [this, addr, page, t0, t1,
                       done = std::move(done)](Tick t) mutable {
                    missCritNs.sample(ticksToNs(t - t1));
                    if (tracer) [[unlikely]]
                        tracer->spanAddr(wiring.track, wiring.miss, t0, t,
                                         addr);
                    installPage(page);
                    mediaFills.inc();
                    if (done)
                        done(t);
                    // Background fill of the remaining chunks,
                    // mirrored into the buffer slot with one
                    // row-friendly 4KB DRAM write once the last
                    // chunk lands. Demand reads outrank these
                    // writes at both the media and the DRAM
                    // controller, so the latency plateaus are
                    // unaffected while the fill bandwidth cost
                    // is real.
                    unsigned chunks = cfg.aitLineBytes /
                                      cfg.mediaChunkBytes;
                    Addr base = pageOf(mediaAddrOf(addr));
                    Addr crit_c = alignDown(mediaAddrOf(addr),
                                            cfg.mediaChunkBytes);
                    // simlint-allow(hotpath: one countdown cell per
                    // AIT miss, whose cost is already a media read;
                    // misses are bounded by the buffer miss rate,
                    // not the event rate)
                    auto left = std::make_shared<unsigned>(
                        chunks - 1);
                    for (unsigned i = 0; i < chunks; ++i) {
                        Addr c = base + static_cast<Addr>(i) *
                                            cfg.mediaChunkBytes;
                        if (c == crit_c)
                            continue;
                        media.readChunkBackground(
                            c, [this, page, left](Tick) {
                                if (--*left == 0) {
                                    dram.access(
                                        bufferSlotAddr(page),
                                        true, cfg.aitLineBytes,
                                        nullptr);
                                }
                            });
                    }
                });
        });
}

void
Ait::readForFill(Addr addr, DoneCallback done)
{
    Addr page = pageOf(addr);
    Tick tag_done = eventq.curTick() + nsToTicks(cfg.aitTagNs);
    fillReads.inc();

    if (bufferHit(page)) {
        bufHits.inc();
        bool tlc_hit = tableCacheHit(page);
        eventq.schedule(tag_done, [this, addr, page, tlc_hit,
                                   done = std::move(done)]() mutable {
            if (tlc_hit) {
                dram.access(bufferSlotAddr(addr), false,
                            cfg.rmwLineBytes, std::move(done));
                return;
            }
            dram.access(tableEntryAddr(page), false, cacheLineSize,
                        [this, addr, page,
                         done = std::move(done)](Tick) mutable {
                            tableCacheInsert(page);
                            dram.access(bufferSlotAddr(addr), false,
                                        cfg.rmwLineBytes,
                                        std::move(done));
                        });
        });
        return;
    }

    // No-allocate: one translation lookup plus a single media chunk.
    bufMisses.inc();
    eventq.schedule(tag_done, [this, addr, page,
                               done = std::move(done)]() mutable {
        dram.access(tableEntryAddr(page), false, cacheLineSize,
                    [this, addr,
                     done = std::move(done)](Tick) mutable {
                        Addr chunk = alignDown(mediaAddrOf(addr),
                                               cfg.mediaChunkBytes);
                        media.readChunk(chunk, std::move(done));
                    });
    });
}

bool
Ait::canAcceptWrite() const
{
    return intake.size() < writeIntakeDepth;
}

void
Ait::acceptWrite(Addr addr, DoneCallback done)
{
    // The RMW buffer must probe canAcceptWrite first: the intake is
    // the bounded queue that turns media pressure into upstream
    // stalls instead of unbounded buffering.
    VANS_REQUIRE("ait", eventq.curTick(), canAcceptWrite(),
                 "write intake overflow (%zu queued, bound %zu)",
                 intake.size(), writeIntakeDepth);
    intake.push_back(PendingWrite{addr, std::move(done), eventq.curTick()});
    writes.inc();
    if (!drainBusy)
        drainWrites();
}

void
Ait::drainWrites()
{
    if (intake.empty()) {
        drainBusy = false;
        return;
    }
    drainBusy = true;
    PendingWrite &head = intake.front();
    Tick now = eventq.curTick();

    // Lazy cache (paper section V-C): absorbed writes skip both the
    // media write and the wear accounting.
    if (writeAbsorber && writeAbsorber(head.addr)) {
        PendingWrite w = std::move(head);
        intake.pop_front();
        lazyAbsorbed.inc();
        Tick at = now + nsToTicks(lazyAbsorbNs);
        if (w.done) {
            eventq.schedule(at,
                            [done = std::move(w.done), at]() mutable {
                                done(at);
                            });
        }
        if (onWriteSpaceFreed)
            onWriteSpaceFreed();
        eventq.scheduleAfter(nsToTicks(2), [this] { drainWrites(); });
        return;
    }

    // Wear-leveling stall: writes to a migrating block wait for the
    // migration to finish (paper: "AIT stalls the inflight CPU
    // writes to this block").
    Tick blocked = wear.blockedUntil(head.addr);
    if (blocked > now) {
        migrationStalls.inc();
        if (tracer) [[unlikely]] {
            // The stall slice spans the wait; the flow arrow ties it
            // back to the migration span on the wear track.
            tracer->spanAddr(wiring.track, wiring.stall, now, blocked,
                             head.addr);
            std::uint64_t flow = wear.migrationFlowId(head.addr);
            if (flow)
                tracer->flowEnd(wiring.track, wiring.stall, now, flow);
        }
        eventq.schedule(blocked, [this] { drainWrites(); });
        return;
    }

    // Media admission: propagate write pressure upstream.
    Addr media_addr = alignDown(mediaAddrOf(head.addr),
                                cfg.mediaChunkBytes);
    if (!media.canAccept(media_addr)) {
        Tick retry = std::max(media.partitionFreeAt(media_addr),
                              now + 1);
        eventq.schedule(retry, [this] { drainWrites(); });
        return;
    }

    PendingWrite w = std::move(head);
    intake.pop_front();

    // Write-through: media write plus a buffer-slot update when the
    // page is resident (mirrored so later reads hit in the buffer).
    wear.onMediaWrite(w.addr);
    media.writeChunk(media_addr, nullptr);
    if (bufLru.contains(pageOf(w.addr))) {
        dram.access(bufferSlotAddr(w.addr), true, cfg.rmwLineBytes,
                    nullptr);
    }
    writeIntakeNs.sample(ticksToNs(now - w.enqueueTick));
    if (w.done)
        w.done(now);
    if (onWriteSpaceFreed)
        onWriteSpaceFreed();

    // Pace intake draining at the media write issue rate of one
    // chunk per partition-turn; the canAccept() check above supplies
    // the real backpressure.
    eventq.scheduleAfter(nsToTicks(2), [this] { drainWrites(); });
}

void
Ait::serialize(snapshot::Archive &ar)
{
    VANS_REQUIRE("ait", eventq.curTick(), quiescent(),
                 "snapshot of a non-quiescent AIT");
    ar.tag("ait");
    serializeLru(ar, bufLru, "ait_buf_entries");
    serializeLru(ar, tlc, "the translation cache");
    statGroup.serialize(ar);
    media.serialize(ar);
    wear.serialize(ar);
    dram.serialize(ar);
}

} // namespace vans::nvram
