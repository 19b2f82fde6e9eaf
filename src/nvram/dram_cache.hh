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
 *
 * Host footprint: the tag store keeps one bit field per set, sized
 * at construction to the socket (see fieldBits), so the shipped
 * 64 MB cache in front of a 4 GB DIMM costs 1 byte of host memory
 * per 64B line.
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

    /** Host bits the tag store keeps per set (fieldBits). */
    unsigned bitsPerSet() const { return fieldBits; }

    /**
     * Attach tracing: one track for the cache (miss-fetch and
     * dirty-evict spans) plus the cache DIMM controller's track.
     * Pointer only; the recorder outlives the model tree.
     */
    void attachTracer(obs::TraceRecorder &rec,
                      const std::string &track_name);

    /**
     * Serialize the tag/dirty metadata (sparse, set order, each valid
     * set as its full line address), stats and the cache DIMM
     * controller. Requires quiescent(): MSHRs, waiters and the
     * writeback queue are empty at capture.
     */
    void serialize(snapshot::Archive &ar);

  private:
    /** State bits, the low two bits of a set's field. */
    static constexpr std::uint64_t kValid = 1;
    static constexpr std::uint64_t kDirty = 2;

    std::uint64_t setOf(Addr line) const
    {
        return (line / cacheLineSize) & (numSets - 1);
    }

    /** DRAM-side address of a set's data slot. */
    Addr slotAddr(std::uint64_t set) const
    {
        return static_cast<Addr>(set) * cacheLineSize;
    }

    /** Field bits of @p line's tag index (line >> tagShift). */
    std::uint64_t tagField(Addr line) const
    {
        return (line >> tagShift) << 2;
    }

    /** The line that field @p f names in @p set. */
    Addr lineOf(std::uint64_t set, std::uint64_t f) const
    {
        return ((f >> 2) << tagShift) | slotAddr(set);
    }

    /** @p set's field, read across a word boundary if it straddles
     *  one: the high word always exists (the spare word), and the
     *  two-step shift is 0 when the field starts a word. */
    std::uint64_t field(std::uint64_t set) const
    {
        std::uint64_t bit = set * fieldBits;
        const std::uint64_t *w = &fields[bit / 64];
        unsigned off = static_cast<unsigned>(bit % 64);
        std::uint64_t v = (w[0] >> off) | ((w[1] << 1) << (63 - off));
        return v & ((std::uint64_t{1} << fieldBits) - 1);
    }

    /** Store @p f, which fits fieldBits, as @p set's field. */
    void setField(std::uint64_t set, std::uint64_t f);

    bool present(std::uint64_t set, Addr line) const
    {
        // A line past the socket has no tag index that fits the
        // field, so it never compares equal.
        return (field(set) | kDirty) == (tagField(line) | kValid | kDirty);
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
    /** log2(dcache_capacity): bits below it name the set and the
     *  byte, bits from it up form the line's tag index. */
    const unsigned tagShift;
    /**
     * Bits per set: the bit width of the socket's highest tag index,
     * (num_dimms * dimm_capacity - 1) >> tagShift, plus kValid and
     * kDirty. 8 for a 64 MB cache in front of one 4 GB DIMM, 11 for
     * six 4 GB DIMMs, at most 39 for a config the schema accepts.
     */
    const unsigned fieldBits;
    /**
     * The tag store: one (tag index << 2) | kDirty | kValid field
     * per set, packed back to back from bit 0 of word 0, so a field
     * may straddle two words. One spare word ends the array.
     */
    std::vector<std::uint64_t> fields;

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
