/**
 * @file
 * Memory-mode DRAM cache: a direct-mapped, 64B-line cache of NVM
 * contents held in a full-size DDR4 DIMM on the same channel (paper
 * section II-A's "Memory mode", the 2LM configuration).
 *
 * One DramCache sits between the iMC channel front-end and the NVM
 * DIMM backend of its channel:
 *  - a read that hits completes at DRAM latency (one 64B access on
 *    the cache DIMM's DramController);
 *  - a read that misses fetches the line from the NVM DIMM, unblocks
 *    the requester as soon as the NVM data arrives, and fills the
 *    DRAM copy in the background. Concurrent misses to the same line
 *    merge onto one fetch (MSHR behaviour);
 *  - a fill or write-allocate that displaces a valid dirty line
 *    issues an NVM writeback for the victim;
 *  - WPQ-drained stores arrive with a write kind: plain stores
 *    allocate write-back (dirty, volatile until evicted); flush-kind
 *    stores (clwb / ntstore) write through to the NVM DIMM so the
 *    persistence instructions keep their App Direct meaning; a
 *    clflushopt additionally invalidates the cached copy.
 *
 * The cache is volatile: dirty lines die with a power cut, which is
 * why Memory mode reports persistSupported() == false at the system
 * level and why the write-through path exists at all.
 */

#ifndef VANS_NVRAM_DRAM_CACHE_HH
#define VANS_NVRAM_DRAM_CACHE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/event_queue.hh"
#include "common/fifo_ring.hh"
#include "common/inplace_function.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/controller.hh"
#include "nvram/dimm.hh"
#include "nvram/nvram_config.hh"

namespace vans::nvram
{

/** Direct-mapped DRAM cache in front of one NVM channel. */
// simlint-hot
class DramCache
{
  public:
    using DoneCallback = InplaceFunction<void(Tick)>;

    /** Write kinds, OR-merged per WPQ line (a merge of a plain store
     *  and a clwb must still write through). */
    static constexpr std::uint8_t kWriteBack = 0;
    /** The store carries persist semantics: forward to the DIMM. */
    static constexpr std::uint8_t kWriteThrough = 1;
    /** Drop the cached copy after the write-through (clflushopt). */
    static constexpr std::uint8_t kInvalidate = 2;

    DramCache(EventQueue &eq, const NvramConfig &cfg,
              NvramDimm &nvm_dimm, const std::string &name);

    /**
     * Service one 64B read. @p done fires when the data is staged on
     * the channel side (DRAM hit latency, or NVM fetch latency on a
     * miss), ready for the iMC's grant/data-return phase.
     */
    void read(Addr addr, DoneCallback done);

    /**
     * WPQ drain admission probe: true while the cache's NVM
     * writeback window has room. The window bounds the write-through
     * and dirty-evict traffic queued toward the DIMM, propagating
     * NVM write pressure back to the WPQ (and the CPU store stream).
     */
    bool canAcceptWrite() const
    {
        return nvmWbQueue.size() < nvmWbWindow;
    }

    /** Admit one 64B line from the WPQ drain with its write kind. */
    void accept(Addr line, std::uint8_t kind);

    /** Registered by the iMC so a drained writeback resumes the
     *  WPQ drain of this channel. */
    InplaceFunction<void()> onSpaceFreed;

    /** Wired to the NVM DIMM's write-space callback: LSQ room freed,
     *  resume forwarding queued writebacks. */
    void nvmSpaceFreed() { drainNvmWrites(); }

    /** True when no write is queued or mid-flight toward the DIMM.
     *  Dirty cached lines do NOT count: they are volatile by design
     *  and no fence flushes them. */
    bool writeQuiescent() const
    {
        return nvmWbQueue.empty() && !nvmDrainBusy;
    }

    /** Snapshot precondition: no fetch, fill, or writeback anywhere
     *  in flight and the cache DIMM's controller idle. */
    bool
    quiescent() const
    {
        return fetching.empty() && missWaiters.empty() &&
               writeQuiescent() && outstandingDramWrites == 0 &&
               dram.queueDepth() == 0;
    }

    /** Tag probe (tests / reference-model checks). */
    bool contains(Addr line) const;

    /** Dirty probe (tests / reference-model checks). */
    bool isDirty(Addr line) const;

    const StatGroup &stats() const { return statGroup; }
    dram::DramController &dramCtrl() { return dram; }

    /** Configured set count (capacity / 64). */
    std::uint64_t sets() const { return numSets; }

    /**
     * Attach tracing: one track for the cache (miss-fetch and
     * dirty-evict spans) plus the cache DIMM controller's track.
     * Pointer only; the recorder outlives the model tree.
     */
    void attachTracer(obs::TraceRecorder &rec,
                      const std::string &track_name);

    /**
     * Serialize the tag/dirty metadata (sparse, set order), stats
     * and the cache DIMM controller. Requires quiescent(): MSHRs,
     * waiters and the writeback queue are empty at capture.
     */
    void serialize(snapshot::Archive &ar);

  private:
    /** Line-state bits packed into lineState[set]. */
    static constexpr std::uint8_t kValid = 1;
    static constexpr std::uint8_t kDirty = 2;

    std::uint64_t setOf(Addr line) const
    {
        return (line / cacheLineSize) & (numSets - 1);
    }

    /** DRAM-side address of a set's data slot. */
    Addr slotAddr(std::uint64_t set) const
    {
        return static_cast<Addr>(set) * cacheLineSize;
    }

    bool present(std::uint64_t set, Addr line) const
    {
        return (lineState[set] & kValid) != 0 && tags[set] == line;
    }

    /** True while an NVM fetch for @p line is outstanding. */
    bool fetchInFlight(Addr line) const;

    /**
     * Install @p line over its set, writebacking a valid dirty
     * victim first. Does not touch the DRAM data array -- callers
     * issue their own data access.
     */
    void installLine(Addr line, bool dirty);

    /** Queue one 64B NVM writeback and poke the forward loop. */
    void pushNvmWrite(Addr line);

    /** Forward queued writebacks into the DIMM's LSQ, one per
     *  handoff slot, paced like a DDR-T write beat. */
    void drainNvmWrites();

    /** NVM fetch completion: fill, then wake the line's waiters. */
    void fillArrived(Addr line);

    /** Background DRAM write (fill or copy-update), tracked only
     *  for quiescence. */
    void dramWrite(Addr line);

    EventQueue &eventq; ///< The owning channel's queue.
    const NvramConfig cfg;
    NvramDimm &nvm;

    const std::uint64_t numSets;
    /** Per-set tag: the full line address cached in the set. */
    std::vector<Addr> tags;
    /** Per-set kValid/kDirty bits. */
    std::vector<std::uint8_t> lineState;

    /** Lines with an outstanding NVM fetch and its start tick (the
     *  MSHR set; linear scan over <= rpqEntries lines, reserved at
     *  construction). */
    std::vector<std::pair<Addr, Tick>> fetching;
    /** Reads blocked on an outstanding fetch, insertion-ordered per
     *  line like the iMC's wpqReadHazards. */
    std::vector<std::pair<Addr, DoneCallback>> missWaiters;
    /** Fill-time staging for released waiters, hoisted out of
     *  fillArrived so the event path reuses its capacity. */
    // simlint-transient(scratch: cleared before every use and dead
    // between fills)
    std::vector<DoneCallback> waiterScratch;

    /** Writebacks and write-throughs queued toward the NVM DIMM. */
    FifoRing<Addr> nvmWbQueue;
    bool nvmDrainBusy = false;
    /** WPQ admission closes while this many writebacks queue up. */
    static constexpr std::size_t nvmWbWindow = 16;

    /** Background DRAM array writes in flight (fills and clean
     *  copy-updates). */
    std::uint32_t outstandingDramWrites = 0;

    StatGroup statGroup;
    StatScalar hits{statGroup, "hits"};
    StatScalar misses{statGroup, "misses"};
    StatScalar mshrMerges{statGroup, "mshr_merges"};
    StatScalar fills{statGroup, "fills"};
    StatScalar dirtyEvicts{statGroup, "dirty_evicts"};
    StatScalar writeThroughs{statGroup, "writethroughs"};
    StatScalar invalidates{statGroup, "invalidates"};
    StatScalar wbWriteHits{statGroup, "wb_write_hits"};
    StatScalar wbWriteMisses{statGroup, "wb_write_misses"};
    StatScalar nvmLineWrites{statGroup, "nvm_line_writes"};
    StatAverage hitRatio{statGroup, "hit_ratio"};

    dram::DramController dram;

    obs::TraceRecorder *tracer = nullptr;
    /** Trace ids, refilled by attachTracer. */
    struct TraceWiring
    {
        std::uint16_t track = 0;
        std::uint16_t miss = 0;
        std::uint16_t evict = 0;
    };
    TraceWiring wiring;
};

} // namespace vans::nvram

#endif // VANS_NVRAM_DRAM_CACHE_HH
