#include "nvram/wear_leveler.hh"

#include <algorithm>

#include "common/check.hh"
#include "common/snapshot.hh"
#include "common/trace_event.hh"

namespace vans::nvram
{

WearLeveler::WearLeveler(EventQueue &eq, const NvramConfig &config)
    : eventq(eq), cfg(config), statGroup("wear")
{}

void
WearLeveler::attachTracer(obs::TraceRecorder &rec,
                          const std::string &track_name)
{
    tracer = &rec;
    wiring.track = rec.track(track_name);
    wiring.migration = rec.label("migration");
}

std::uint64_t
WearLeveler::migrationFlowId(Addr addr) const
{
    auto it = wiring.flows.find(blockOf(addr));
    return it == wiring.flows.end() ? 0 : it->second;
}

void
WearLeveler::onMediaWrite(Addr addr)
{
    Addr block = blockOf(addr);
    std::uint64_t &count = wearCount[block];
    ++count;
    mediaWriteCount.inc();

    if (count < cfg.wearThreshold || migrating.count(block))
        return;

    // A migration triggers at exactly the threshold: writes to a
    // migrating block stall upstream (in the AIT), so the counter
    // can never overshoot. ~14000 writes per 64KB block by default.
    VANS_INVARIANT("wear", eventq.curTick(),
                   count == cfg.wearThreshold,
                   "migration of block %llx at wear %llu != "
                   "threshold %llu",
                   static_cast<unsigned long long>(block),
                   static_cast<unsigned long long>(count),
                   static_cast<unsigned long long>(cfg.wearThreshold));

    // Start an asynchronous migration of this block. The counter
    // resets -- the data now lives in fresh media with fresh wear.
    std::uint64_t wear = count;
    count = 0;
    Tick end = eventq.curTick() +
               nsToTicks(cfg.migrationUs * 1000.0);
    migrating[block] = end;
    migrationCount.inc();
    if (tracer) [[unlikely]] {
        // The migration span covers [now, end]; the flow source sits
        // at its start so downstream stall slices (AIT track) can
        // draw the causality arrow back to this migration.
        Tick now = eventq.curTick();
        tracer->spanAddr(wiring.track, wiring.migration, now, end,
                         block * cfg.wearBlockBytes);
        wiring.flows[block] =
            tracer->flowBegin(wiring.track, wiring.migration, now);
    }
    eventq.schedule(end, [this, block] {
        migrating.erase(block);
        if (tracer) [[unlikely]]
            wiring.flows.erase(block);
    });
    if (onMigration)
        onMigration(block * cfg.wearBlockBytes, wear);
}

Tick
WearLeveler::blockedUntil(Addr addr) const
{
    auto it = migrating.find(blockOf(addr));
    return it == migrating.end() ? 0 : it->second;
}

std::uint64_t
WearLeveler::blockWear(Addr addr) const
{
    auto it = wearCount.find(blockOf(addr));
    return it == wearCount.end() ? 0 : it->second;
}

Tick
WearLeveler::earliestMigrationEnd() const
{
    Tick earliest = 0;
    for (const auto &kv : migrating)
        earliest = earliest ? std::min(earliest, kv.second) : kv.second;
    return earliest;
}

void
WearLeveler::serialize(snapshot::Archive &ar)
{
    VANS_REQUIRE("wear", eventq.curTick(), migrating.empty(),
                 "snapshot with %zu in-flight migrations",
                 migrating.size());
    ar.tag("wear");
    ar.sortedMap(wearCount);
    statGroup.serialize(ar);
}

} // namespace vans::nvram
