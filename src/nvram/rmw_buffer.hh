/**
 * @file
 * RMW buffer model: the 16KB on-DIMM SRAM staging buffer with 256B
 * entries (paper sections III-C and IV-A).
 *
 * Dual role:
 *  - Read cache: read misses fill a 256B line from the AIT and the
 *    line stays resident (clean) until evicted, which is what makes
 *    pointer-chasing regions up to 16KB fast (the first latency
 *    plateau).
 *  - Write staging: writes from the LSQ are merged into an entry and
 *    issued FIFO to the AIT ("the RMW Buffer issues FIFO requests to
 *    the AIT Buffer"). Writes smaller than the 256B entry trigger the
 *    read-modify-write fill that gives the buffer its name -- and the
 *    4x write amplification LENS measures for sub-256B stores.
 *
 * Inclusive hierarchy: everything resident here was filled through
 * the AIT buffer, so the two levels form the two-level inclusive
 * hierarchy the paper's RaW experiment identifies (Fig 5c).
 */

#ifndef VANS_NVRAM_RMW_BUFFER_HH
#define VANS_NVRAM_RMW_BUFFER_HH

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/event_queue.hh"
#include "common/fifo_ring.hh"
#include "common/inplace_function.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "nvram/ait.hh"
#include "nvram/nvram_config.hh"

namespace vans::nvram
{

/** 64-entry x 256B SRAM staging buffer in front of the AIT. */
// simlint-hot
class RmwBuffer
{
  public:
    using DoneCallback = InplaceFunction<void(Tick)>;

    RmwBuffer(EventQueue &eq, const NvramConfig &cfg, Ait &ait,
              const std::string &name);

    /**
     * Read 64B at @p addr. @p done fires when data is available at
     * the DIMM controller.
     */
    void read(Addr addr, DoneCallback done);

    /** True while a write of a new line can be admitted. */
    bool canAcceptWrite(Addr addr) const;

    /**
     * Accept a write covering @p bytes at @p addr (aligned within
     * one 256B line). Writes of a full line skip the RMW fill.
     * @p done fires when the write is merged into the buffer entry
     * (LSQ may then free its entries).
     */
    void acceptWrite(Addr addr, std::uint32_t bytes, DoneCallback done);

    /** Registered by the LSQ to learn about freed space. */
    InplaceFunction<void()> onSpaceFreed;

    /** True when no dirty data is staged or queued toward the AIT. */
    bool writeQuiescent() const;

    /** Snapshot precondition: every entry Clean with no dirty bytes
     *  or waiters, no fills open. */
    bool quiescent() const;

    /** Resident-line count (tests and probers). */
    std::size_t occupancy() const { return entries.size(); }

    /** Read-modify-write fills so far (write amplification). */
    std::uint64_t fills() const { return rmwFills.value(); }

    const StatGroup &stats() const { return statGroup; }

    /**
     * Attach tracing: one track showing read-modify-write fill
     * spans, read-miss instants, and an occupancy counter series.
     * Pointer only; the recorder outlives this model.
     */
    void attachTracer(obs::TraceRecorder &rec,
                      const std::string &track_name);

    /**
     * Serialize resident entries (sorted by line), the clean-LRU
     * sequence verbatim, and stats. Requires quiescent(). A restore
     * REQUIREs the entries to fit this buffer's rmw_entries.
     */
    void serialize(snapshot::Archive &ar);

  private:
    enum class State : std::uint8_t
    {
        Filling,    ///< AIT fill in flight (RMW read pending).
        Dirty,      ///< Staged write waiting in the issue FIFO.
        IssuedWait, ///< Offered to the AIT, waiting for intake.
        Clean,      ///< Data valid, nothing pending (read cache).
    };

    struct Entry
    {
        Addr line;
        State state = State::Clean;
        std::uint32_t dirtyBytes = 0;
        /** Entry exists only to stage a write: freed after issue.
         *  Read-fill entries are retained clean instead -- the RMW
         *  buffer is a read cache but only a *staging* buffer for
         *  writes (paper: "issues FIFO requests to the AIT"). */
        bool writeStaging = false;
        bool inCleanLru = false; ///< Present in the LRU list.
        std::vector<DoneCallback> mergeWaiters;
    };

    Addr lineOf(Addr addr) const { return alignDown(addr,
                                                    cfg.rmwLineBytes); }

    Entry *find(Addr line);

    /** Transition @p e to Clean and register it as evictable. */
    void markClean(Entry &e);

    /** Evict a clean entry to make room. @return true on success. */
    bool makeRoom();

    void enqueueIssue(Addr line);
    void drainIssue();
    void finishWrite(Entry &e, Tick when);

    /** Recount State::Clean entries (audits only). */
    std::size_t countedClean() const;

    EventQueue &eventq;
    const NvramConfig cfg;
    Ait &ait;

    std::unordered_map<Addr, Entry> entries;
    std::list<Addr> cleanLru;          ///< Front = most recent.
    std::size_t cleanCount = 0;        ///< Entries in State::Clean.
    FifoRing<Addr> issueFifo;          ///< Dirty lines, FIFO to AIT.
    bool issueBusy = false;
    /** Write-staging fills in flight. The staging pipeline is FIFO
     *  (paper section IV-A), so an open read-modify-write fill
     *  blocks admission of further staged writes -- the mechanism
     *  that prices sub-256B write streams once the LSQ overflows. */
    unsigned writeFillsInFlight = 0;

    StatGroup statGroup;
    StatScalar evictions{statGroup, "evictions"};
    StatScalar readHits{statGroup, "read_hits"};
    StatScalar readMisses{statGroup, "read_misses"};
    StatScalar readBypass{statGroup, "read_bypass"};
    StatScalar writes{statGroup, "writes"};
    StatScalar writeMerges{statGroup, "write_merges"};
    StatScalar rmwFills{statGroup, "rmw_fills"};

    obs::TraceRecorder *tracer = nullptr;
    /** Trace ids, refilled by attachTracer. */
    struct TraceWiring
    {
        std::uint16_t track = 0;
        std::uint16_t fill = 0;
        std::uint16_t readMiss = 0;
        std::uint16_t occupancy = 0;
    };
    TraceWiring wiring;
};

} // namespace vans::nvram

#endif // VANS_NVRAM_RMW_BUFFER_HH
