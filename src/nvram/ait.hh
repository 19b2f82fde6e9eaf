/**
 * @file
 * Address Indirection Table (AIT) model: translation table + data
 * buffer, both living in the on-DIMM DRAM (paper sections III-C and
 * IV-A).
 *
 * Responsibilities:
 *  - CPU-address to media-address indirection at 4KB granularity.
 *    The translation table is an array in on-DIMM DRAM; a lookup is
 *    a 64B DRAM read on the critical path of every buffer miss.
 *  - The AIT Buffer: 4096 x 4KB (16MB) of media data cached in the
 *    on-DIMM DRAM. Read hits cost one 256B DRAM access. Read misses
 *    fetch the critical 256B media chunk first (the requester
 *    unblocks as soon as it arrives) and fill the remaining chunks
 *    of the 4KB line in the background.
 *  - Writes are write-through to media: every 256B write the RMW
 *    buffer drains here is forwarded to the media (and mirrored into
 *    the buffer when the line is resident). This is what makes
 *    sustained write bandwidth media-limited and what feeds the
 *    wear-leveling counters.
 *  - Wear-leveling stalls: a write targeting a migrating 64KB block
 *    waits until the migration completes (the Fig 7b tail).
 *
 * Backpressure: writes enter through a small bounded intake;
 * canAcceptWrite()/onWriteSpaceFreed propagate media write pressure
 * back to the RMW buffer and ultimately to the CPU store stream.
 *
 * Hot-path containers are allocation-free: both LRUs are flat
 * array-backed FlatLru sets and the write intake is a FifoRing that
 * never outgrows its first buffer, so the steady-state read/write
 * paths allocate nothing.
 */

#ifndef VANS_NVRAM_AIT_HH
#define VANS_NVRAM_AIT_HH

#include <cstdint>

#include "common/event_queue.hh"
#include "common/fifo_ring.hh"
#include "common/flat_lru.hh"
#include "common/inplace_function.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/controller.hh"
#include "nvram/media.hh"
#include "nvram/nvram_config.hh"
#include "nvram/wear_leveler.hh"

namespace vans::nvram
{

/** The AIT: translation + buffering between RMW buffer and media. */
// simlint-hot
class Ait
{
  public:
    using DoneCallback = InplaceFunction<void(Tick)>;

    Ait(EventQueue &eq, const NvramConfig &cfg,
        const std::string &name);

    /**
     * Read one RMW-granularity line (cfg.rmwLineBytes, aligned) at
     * CPU address @p addr. @p done fires when the data is available
     * to the RMW buffer. Misses allocate a buffer line.
     */
    void read(Addr addr, DoneCallback done);

    /**
     * Read for an RMW write-fill: fetches exactly one media chunk,
     * does not allocate a buffer line on miss (write fills must not
     * pollute the read-caching AIT buffer).
     */
    void readForFill(Addr addr, DoneCallback done);

    /** True while the write intake has room. */
    bool canAcceptWrite() const;

    /**
     * Accept one 256B write (write-through to media). @p done fires
     * when the write has been issued to the media queue -- i.e. it
     * is ordered and durable-bound; this is the point the fence
     * quiescence check uses.
     */
    void acceptWrite(Addr addr, DoneCallback done);

    /** Registered by the RMW buffer to learn about freed intake. */
    InplaceFunction<void()> onWriteSpaceFreed;

    /** True when no writes are queued or mid-flight in the AIT. */
    bool writeQuiescent() const { return intake.empty() && !drainBusy; }

    /** Snapshot precondition: write path and submodels all idle. */
    bool
    quiescent() const
    {
        return writeQuiescent() && media.quiescent() &&
               wear.activeMigrations() == 0 && dram.queueDepth() == 0;
    }

    WearLeveler &wearLeveler() { return wear; }
    XPointMedia &mediaDev() { return media; }
    dram::DramController &dramCtrl() { return dram; }
    const StatGroup &stats() const { return statGroup; }

    /**
     * Attach tracing to this AIT and its submodels (media
     * partitions, wear leveler, on-DIMM DRAM). The AIT track shows
     * miss fetches and wear-leveling write stalls; a stall slice
     * carries a flow arrow from the migration that caused it.
     * Pointer only; the recorder outlives the model tree.
     */
    void attachTracer(obs::TraceRecorder &rec,
                      const std::string &track_name);

    /** Resident AIT-buffer lines (invariant checker / probers). */
    std::size_t bufferOccupancy() const { return bufLru.size(); }

    /** Writes currently queued in the bounded intake. */
    std::size_t writeIntakeOccupancy() const { return intake.size(); }

    /** Configured intake bound. */
    std::size_t writeIntakeCapacity() const
    {
        return writeIntakeDepth;
    }

    /**
     * Pre-translation support (paper section V-B): when set, read()
     * also performs the extra on-DIMM DRAM access that fetches the
     * Pre-translation entry for this address. The hook receives the
     * address and the tick the entry becomes available.
     */
    InplaceFunction<void(Addr, Tick)> preTranslationFetch;

    /**
     * Lazy-cache support (paper section V-C): consulted before each
     * media write. Returning true absorbs the write into the lazy
     * cache -- no media write, no wear -- and the AIT completes it
     * after @ref lazyAbsorbNs instead.
     */
    InplaceFunction<bool(Addr)> writeAbsorber;

    /** Service time of an absorbed (lazy-cached) write, ns. */
    static constexpr double lazyAbsorbNs = 15;

    /**
     * Serialize buffer/translation residency (recency order),
     * stats, and the media/wear/DRAM submodels. Requires
     * quiescent(). A restore REQUIREs the buffered pages to fit this
     * AIT's ait_buf_entries.
     */
    void serialize(snapshot::Archive &ar);

  private:
    struct PendingWrite
    {
        Addr addr = 0;
        DoneCallback done;
        Tick enqueueTick = 0;
    };

    Addr pageOf(Addr addr) const { return alignDown(addr,
                                                    cfg.aitLineBytes); }

    /** On-DIMM DRAM address of buffer slot content for @p addr. */
    Addr bufferSlotAddr(Addr addr) const;

    /** On-DIMM DRAM address of the translation entry for a page. */
    Addr tableEntryAddr(Addr page) const;

    /** Media address for @p addr (identity + migration salt). */
    Addr mediaAddrOf(Addr addr) const;

    /** Look up page in buffer; bumps LRU on hit. */
    bool bufferHit(Addr page);

    /** Install @p page, evicting LRU if needed. */
    void installPage(Addr page);

    bool tableCacheHit(Addr page);
    void tableCacheInsert(Addr page);

    /**
     * Miss path: translation lookup, critical-chunk media fetch,
     * background line fill. Re-schedules itself while the fill
     * engine is backed up, carrying @p done through by move.
     */
    void startMissFetch(Addr addr, Addr page, Tick t0,
                        DoneCallback done);

    void drainWrites();

    EventQueue &eventq;
    const NvramConfig cfg;
    XPointMedia media;
    WearLeveler wear;
    dram::DramController dram;

    /** Resident pages, most recent first. */
    FlatLru bufLru;

    /** Small translation cache in the DIMM controller: pages whose
     *  AIT entry was read recently skip the table DRAM access.
     *  Pointer chases over many pages miss it (the latency curves
     *  keep the table cost); streaming accesses hit it (sustained
     *  bandwidth is data-limited, as measured on the device). */
    FlatLru tlc;
    static constexpr std::size_t tlcCapacity = 128;

    /** Bounded write intake (canAcceptWrite holds it to the depth). */
    static constexpr std::size_t writeIntakeDepth = 4;
    FifoRing<PendingWrite> intake;
    bool drainBusy = false;

    StatGroup statGroup;
    StatScalar reads{statGroup, "reads"};
    StatScalar writes{statGroup, "writes"};
    StatScalar bufHits{statGroup, "buf_hits"};
    StatScalar bufMisses{statGroup, "buf_misses"};
    StatScalar bufEvictions{statGroup, "buf_evictions"};
    StatScalar fillReads{statGroup, "fill_reads"};
    StatScalar fillThrottle{statGroup, "fill_throttle"};
    StatScalar mediaFills{statGroup, "media_fills"};
    StatScalar lazyAbsorbed{statGroup, "lazy_absorbed"};
    StatScalar migrationStalls{statGroup, "migration_stalls"};
    StatAverage missTableNs{statGroup, "miss_table_ns"};
    StatAverage missCritNs{statGroup, "miss_crit_ns"};
    StatAverage writeIntakeNs{statGroup, "write_intake_ns"};

    obs::TraceRecorder *tracer = nullptr;
    /** Trace ids, refilled by attachTracer. */
    struct TraceWiring
    {
        std::uint16_t track = 0;
        std::uint16_t miss = 0;
        std::uint16_t stall = 0;
    };
    TraceWiring wiring;
};

} // namespace vans::nvram

#endif // VANS_NVRAM_AIT_HH
