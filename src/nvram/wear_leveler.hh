/**
 * @file
 * Wear-leveling engine (paper sections III-D and IV-A).
 *
 * The AIT keeps a write counter per wear block (64KB by default).
 * When a block's counter crosses the threshold, the engine starts an
 * asynchronous migration: the block's data moves to a fresh media
 * location and the AIT translation record is updated. While a
 * migration is in flight, *writes to that block* stall until it
 * completes -- writes to other blocks proceed. This is precisely the
 * mechanism behind two measured behaviours:
 *
 *  - Fig 7b: overwriting one 256B region shows a >100x tail latency
 *    every ~threshold writes (the stalled write observes the full
 *    migration).
 *  - Fig 7c: once the overwrite region spans more than one wear
 *    block, the tail ratio collapses, because by the time the test
 *    returns to the migrating block the migration has finished --
 *    the stall hides behind writes to the other blocks.
 */

#ifndef VANS_NVRAM_WEAR_LEVELER_HH
#define VANS_NVRAM_WEAR_LEVELER_HH

#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/event_queue.hh"
#include "common/inplace_function.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "nvram/nvram_config.hh"

namespace vans::obs
{
class TraceRecorder;
} // namespace vans::obs

namespace vans::nvram
{

/** Tracks per-block wear and runs background migrations. */
// simlint-hot
class WearLeveler
{
  public:
    WearLeveler(EventQueue &eq, const NvramConfig &cfg);

    /**
     * Account one media write to @p addr (CPU address space). May
     * start a migration of the owning block.
     */
    void onMediaWrite(Addr addr);

    /**
     * If the block owning @p addr is migrating, the tick at which
     * the migration completes (writes must stall until then);
     * otherwise 0.
     */
    Tick blockedUntil(Addr addr) const;

    /** Media writes counted toward wear so far. */
    std::uint64_t mediaWrites() const { return mediaWriteCount.value(); }

    /** Total migrations started so far. */
    std::uint64_t migrations() const
    {
        return migrationCount.value();
    }

    /** Wear count of the block owning @p addr (since last reset). */
    std::uint64_t blockWear(Addr addr) const;

    /** Migrations currently in flight. */
    std::size_t activeMigrations() const { return migrating.size(); }

    /**
     * Completion tick of the earliest in-flight migration; 0 when
     * none. Every in-flight migration must complete in the future --
     * a stale entry would stall writes to its block forever.
     */
    Tick earliestMigrationEnd() const;

    /**
     * Lazy-cache hook (paper section V-C): called when a migration
     * of @p block_addr begins, carrying the wear count that
     * triggered it.
     */
    InplaceFunction<void(Addr block_addr, std::uint64_t wear)>
        onMigration;

    const StatGroup &stats() const { return statGroup; }

    /**
     * Attach tracing: each migration records a span on the wear
     * track and opens a flow whose id the AIT uses to connect the
     * stalls it causes. Held by pointer only (tracebyvalue rule).
     */
    void attachTracer(obs::TraceRecorder &rec,
                      const std::string &track_name);

    /** Flow id of the migration covering @p addr (0 when none or
     *  when tracing is off). */
    std::uint64_t migrationFlowId(Addr addr) const;

    /**
     * Serialize per-block wear counters (sorted by block for a
     * deterministic image) and stats. Requires no in-flight
     * migrations -- their completion events cannot be captured.
     */
    void serialize(snapshot::Archive &ar);

  private:
    Addr blockOf(Addr addr) const { return addr / cfg.wearBlockBytes; }

    EventQueue &eventq;
    const NvramConfig cfg;
    std::unordered_map<Addr, std::uint64_t> wearCount;
    std::unordered_map<Addr, Tick> migrating; ///< block -> end tick.
    StatGroup statGroup;
    StatScalar mediaWriteCount{statGroup, "media_writes"};
    StatScalar migrationCount{statGroup, "migrations"};

    obs::TraceRecorder *tracer = nullptr;
    /** Trace ids, refilled by attachTracer, and the open flows. */
    struct TraceWiring
    {
        std::uint16_t track = 0;
        std::uint16_t migration = 0;
        /** block -> open migration flow id. */
        std::unordered_map<Addr, std::uint64_t> flows;
    };
    TraceWiring wiring;
};

} // namespace vans::nvram

#endif // VANS_NVRAM_WEAR_LEVELER_HH
