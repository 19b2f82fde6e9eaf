#include "nvram/dram_cache.hh"

#include <algorithm>
#include <bit>

#include "common/check.hh"
#include "common/logging.hh"
#include "common/snapshot.hh"
#include "common/trace_event.hh"

namespace vans::nvram
{

namespace
{

dram::DramGeometry
cacheDramGeometry(const NvramConfig &cfg)
{
    dram::DramGeometry g;
    g.capacityBytes = cfg.dcacheCapacity;
    g.rowBytes = 8192;
    // Test-size caches: shrink the page, then the bank fan-out,
    // until the mapping has at least one row per bank (validate()
    // guarantees a power-of-two capacity of at least one line).
    while (g.rowBytes > cacheLineSize &&
           g.rowBytes * g.totalBanks() > g.capacityBytes)
        g.rowBytes /= 2;
    while (g.totalBanks() > 1 &&
           g.rowBytes * g.totalBanks() > g.capacityBytes) {
        if (g.bankGroups > 1)
            g.bankGroups /= 2;
        else
            g.banksPerGroup /= 2;
    }
    return g;
}

} // namespace

DramCache::DramCache(EventQueue &eq, const NvramConfig &config,
                     NvramDimm &nvm_dimm, const std::string &name)
    : eventq(eq),
      cfg(config),
      nvm(nvm_dimm),
      numSets(config.dcacheCapacity / cacheLineSize),
      tagShift(static_cast<unsigned>(
          std::countr_zero(config.dcacheCapacity))),
      fieldBits(2 + static_cast<unsigned>(std::bit_width(
                        (config.numDimms * config.dimmCapacity - 1) >>
                        tagShift))),
      fields((numSets * fieldBits + 63) / 64 + 1, 0),
      statGroup(name, StatGroup::Listing::All),
      dram(eq, config.dcacheTiming, cacheDramGeometry(config),
           dram::SchedPolicy::FRFCFS, dram::MapScheme::RowBankCol,
           name + ".dram")
{
    VANS_REQUIRE("dcache", 0,
                 numSets > 0 && (numSets & (numSets - 1)) == 0,
                 "set count %llu is not a power of two "
                 "(dcache_capacity %llu)",
                 static_cast<unsigned long long>(numSets),
                 static_cast<unsigned long long>(
                     cfg.dcacheCapacity));
    fetching.reserve(cfg.rpqEntries);
    missWaiters.reserve(cfg.rpqEntries);
    waiterScratch.reserve(cfg.rpqEntries);
}

void
DramCache::attachTracer(obs::TraceRecorder &rec,
                        const std::string &track_name)
{
    tracer = &rec;
    wiring.track = rec.track(track_name);
    wiring.miss = rec.label("dc_miss");
    wiring.evict = rec.label("dc_evict");
    dram.attachTracer(rec, track_name + ".dram");
}

bool
DramCache::contains(Addr line) const
{
    return present(setOf(line), alignDown(line, cacheLineSize));
}

bool
DramCache::isDirty(Addr line) const
{
    Addr l = alignDown(line, cacheLineSize);
    std::uint64_t set = setOf(l);
    return present(set, l) && (field(set) & kDirty) != 0;
}

void
DramCache::setField(std::uint64_t set, std::uint64_t f)
{
    std::uint64_t mask = (std::uint64_t{1} << fieldBits) - 1;
    VANS_AUDIT("dcache", eventq.curTick(), f <= mask,
               "field %llx of set %llu overflows %u bits",
               static_cast<unsigned long long>(f),
               static_cast<unsigned long long>(set), fieldBits);
    std::uint64_t bit = set * fieldBits;
    std::uint64_t *w = &fields[bit / 64];
    unsigned off = static_cast<unsigned>(bit % 64);
    w[0] = (w[0] & ~(mask << off)) | (f << off);
    // The bits past the first word, shifted as in field().
    w[1] = (w[1] & ~((mask >> 1) >> (63 - off))) |
           ((f >> 1) >> (63 - off));
}

bool
DramCache::fetchInFlight(Addr line) const
{
    for (const auto &[l, t] : fetching) {
        if (l == line)
            return true;
    }
    return false;
}

void
DramCache::read(Addr addr, DoneCallback done)
{
    Addr line = alignDown(addr, cacheLineSize);
    std::uint64_t set = setOf(line);
    bool hit = present(set, line);
    hitRatio.sample(hit ? 1.0 : 0.0);
    if (hit) {
        hits.inc();
        // Data lives in the cache DIMM: one 64B DRAM access at DDR4
        // timing is the whole service.
        dram.access(slotAddr(set), false, cacheLineSize,
                    std::move(done));
        return;
    }
    misses.inc();
    bool merged = fetchInFlight(line);
    missWaiters.emplace_back(line, std::move(done));
    if (merged) {
        // MSHR merge: ride the outstanding fetch.
        mshrMerges.inc();
        return;
    }
    fetching.emplace_back(line, eventq.curTick());
    nvm.read(line, [this, line](Tick) { fillArrived(line); });
}

void
DramCache::fillArrived(Addr line)
{
    Tick now = eventq.curTick();
    std::uint64_t set = setOf(line);
    // A write-allocate may have installed the line while the fetch
    // was in flight; keep its (dirty) copy -- the NVM data is stale
    // against it.
    if (!present(set, line)) {
        installLine(line, false);
        fills.inc();
        dramWrite(line);
    }
    // Retire the MSHR before waking waiters: a released callback may
    // immediately issue another read of the same line, which must
    // see the installed tag, not the dead fetch entry.
    for (std::size_t i = 0; i < fetching.size(); ++i) {
        if (fetching[i].first == line) {
            if (tracer) [[unlikely]] {
                tracer->span(wiring.track, wiring.miss,
                             fetching[i].second, now);
            }
            fetching[i] = fetching.back();
            fetching.pop_back();
            break;
        }
    }
    // Wake every read merged onto this fetch, in issue order (the
    // flat vector preserves insertion order per line, exactly like
    // the iMC's WPQ read hazards).
    waiterScratch.clear();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < missWaiters.size(); ++i) {
        if (missWaiters[i].first == line)
            waiterScratch.push_back(std::move(missWaiters[i].second));
        else
            missWaiters[kept++] = std::move(missWaiters[i]);
    }
    missWaiters.resize(kept);
    for (DoneCallback &cb : waiterScratch)
        cb(now);
}

void
DramCache::installLine(Addr line, bool dirty)
{
    std::uint64_t set = setOf(line);
    std::uint64_t old = field(set);
    std::uint64_t tag = tagField(line);
    if ((old & (kValid | kDirty)) == (kValid | kDirty) &&
        (old >> 2) != (tag >> 2)) {
        // Direct-mapped conflict with a dirty resident: the victim's
        // only up-to-date copy is here, write it back to the DIMM.
        dirtyEvicts.inc();
        if (tracer) [[unlikely]] {
            Tick now = eventq.curTick();
            tracer->span(wiring.track, wiring.evict, now,
                         now + nsToTicks(cfg.busCmdNs +
                                         cfg.busDataPer64bNs));
        }
        pushNvmWrite(lineOf(set, old));
    }
    setField(set, tag | kValid | (dirty ? kDirty : 0));
}

void
DramCache::accept(Addr line, std::uint8_t kind)
{
    std::uint64_t set = setOf(line);
    bool was_present = present(set, line);
    if ((kind & kWriteThrough) != 0) {
        // Persist-kind store: the DIMM must see it (clwb / ntstore
        // keep their App Direct durability path through the volatile
        // cache).
        writeThroughs.inc();
        pushNvmWrite(line);
        if (was_present) {
            if ((kind & kInvalidate) != 0) {
                // clflushopt: writeback + invalidate.
                invalidates.inc();
                setField(set, 0);
            } else {
                // The cached copy now matches the DIMM: clean.
                setField(set, tagField(line) | kValid);
                dramWrite(line);
            }
        }
        return;
    }
    // Plain store: write-back allocate. The WPQ drained the full
    // 64B line, so a miss installs without fetching from the DIMM.
    if (was_present)
        wbWriteHits.inc();
    else
        wbWriteMisses.inc();
    installLine(line, true);
    dramWrite(line);
}

void
DramCache::dramWrite(Addr line)
{
    // Background DRAM array write (fill or copy-update): nothing
    // waits on it, but quiescence must.
    ++outstandingDramWrites;
    dram.access(slotAddr(setOf(line)), true, cacheLineSize,
                [this](Tick) { --outstandingDramWrites; });
}

void
DramCache::pushNvmWrite(Addr line)
{
    nvmLineWrites.inc();
    nvmWbQueue.push_back(line);
    drainNvmWrites();
}

void
DramCache::drainNvmWrites()
{
    if (nvmDrainBusy || nvmWbQueue.empty())
        return;
    Addr line = nvmWbQueue.front();
    if (!nvm.canAcceptWrite(line))
        return; // Resumed by the DIMM's write-space callback.
    nvmDrainBusy = true;
    nvmWbQueue.pop_front();
    nvm.acceptWrite(line);
    // One handoff per DDR-T write beat: the cache-to-DIMM hop rides
    // the same channel wires as an App Direct WPQ drain.
    eventq.scheduleAfter(
        nsToTicks(cfg.busCmdNs + cfg.busDataPer64bNs), [this] {
            nvmDrainBusy = false;
            drainNvmWrites();
            if (nvmWbQueue.size() < nvmWbWindow && onSpaceFreed)
                onSpaceFreed();
        });
}

void
DramCache::serialize(snapshot::Archive &ar)
{
    VANS_REQUIRE("dcache", eventq.curTick(), quiescent(),
                 "snapshot of a non-quiescent DRAM cache");
    ar.tag("dcache");
    ar.count("dcache set", numSets);
    // Sparse tag store in set order: (set, line, dirty) triples,
    // each with the full line address, so the stream does not depend
    // on the field width. The capture counts the valid sets; a
    // restore clears the tag store, then sets the fields the stream
    // names.
    std::uint64_t valid = 0;
    if (ar.loading()) {
        std::fill(fields.begin(), fields.end(), 0);
    } else {
        for (std::uint64_t set = 0; set < numSets; ++set)
            valid += field(set) & kValid;
    }
    ar(valid);
    std::uint64_t set = 0;
    for (std::uint64_t i = 0; i < valid; ++i, ++set) {
        // A capture walks to the next valid set; a restore reads it.
        while (!ar.loading() && (field(set) & kValid) == 0)
            ++set;
        ar(set);
        VANS_REQUIRE("dcache", eventq.curTick(), set < numSets,
                     "snapshot set %llu beyond %llu sets",
                     static_cast<unsigned long long>(set),
                     static_cast<unsigned long long>(numSets));
        std::uint64_t f = field(set);
        Addr line = lineOf(set, f);
        bool dirty = (f & kDirty) != 0;
        ar(line, dirty);
        if (ar.loading()) {
            f = tagField(line) | kValid | (dirty ? kDirty : 0);
            VANS_REQUIRE("dcache", eventq.curTick(),
                         (f >> fieldBits) == 0 && lineOf(set, f) == line,
                         "snapshot line %llx does not map to set %llu "
                         "of a %u-bit tag store",
                         static_cast<unsigned long long>(line),
                         static_cast<unsigned long long>(set),
                         fieldBits);
            setField(set, f);
        }
    }
    statGroup.serialize(ar);
    dram.serialize(ar);
}

} // namespace vans::nvram
