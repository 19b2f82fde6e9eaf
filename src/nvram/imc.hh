/**
 * @file
 * Integrated memory controller (iMC) model for NVRAM channels.
 *
 * Per DIMM, the iMC keeps:
 *  - the WPQ: 8 x 64B (512B) write pending queue inside the ADR
 *    persistence domain. NT stores complete, from the CPU's point of
 *    view, when they enter (or merge into) the WPQ. The WPQ drains
 *    over the DDR-T bus with a request/grant handshake per write --
 *    the pacing behind the 512B inflection of the store latency
 *    curve (Fig 5a).
 *  - the RPQ: a cap on in-flight reads (request/grant scheme: the
 *    DIMM pushes data back when the iMC grants an RPQ slot).
 *  - a DDR-T bus with per-direction occupancy and a turnaround
 *    penalty when ownership flips between reads and writes (the
 *    "memory bus redirection" the paper blames for RaW latency).
 *
 * Across DIMMs the iMC implements the 4KB interleaving the policy
 * prober detects (Fig 7a), and fences complete at write-path
 * quiescence: every pre-fence write has reached AIT write ordering.
 *
 * One EventQueue clocks the whole socket, every channel included;
 * write completions fire synchronously at WPQ entry.
 */

#ifndef VANS_NVRAM_IMC_HH
#define VANS_NVRAM_IMC_HH

#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/event_queue.hh"
#include "common/fifo_ring.hh"
#include "common/lifecycle.hh"
#include "common/request.hh"
#include "common/request_pool.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "nvram/dimm.hh"
#include "nvram/dram_cache.hh"
#include "nvram/nvram_config.hh"

namespace vans::nvram
{

/** The processor-side memory controller driving NVRAM DIMMs. */
// simlint-hot
class Imc
{
  public:
    Imc(EventQueue &eq, RequestPool &pool, const NvramConfig &cfg,
        const std::string &name);

    /** Route a 64B line to its DIMM. */
    unsigned dimmOf(Addr addr) const;

    /** Issue one read (completes when data is back at the core). */
    void issueRead(RequestHandle h);

    /** Issue one write (completes at WPQ entry/merge: ADR reached). */
    void issueWrite(RequestHandle h);

    /** Issue a fence (completes at write-path quiescence). */
    void issueFence(RequestHandle h);

    /**
     * Issue an sfence: completes once every prior write has been
     * accepted into a WPQ (the ADR boundary) -- strictly weaker than
     * issueFence, which additionally drains the WPQs and the on-DIMM
     * pipeline. An sfence cutting an NT-store run at a partial
     * write-combining buffer pays cfg.wcPartialDrainNs (the
     * Empirical Guide's small-ntstore punishment).
     */
    void issueSfence(RequestHandle h);

    /**
     * Persistence-domain tracking: record, per channel, the durable
     * version (request id) of every line accepted into its WPQ. Off
     * by default -- the version map is the only allocating structure
     * on the write path, and crash runs are the only consumer.
     */
    void enablePersistTracking() { persistTracking = true; }
    bool persistTrackingEnabled() const { return persistTracking; }

    /**
     * The durable media image under ADR semantics: every (line,
     * version) accepted into a WPQ so far, sorted by line. On a
     * power cut the WPQs drain to media by guarantee, so this is
     * exactly what survives. Requires tracking enabled; callable at
     * any tick core-side (a power cut is not a quiescent point).
     */
    void durableLines(
        std::vector<std::pair<Addr, std::uint64_t>> &out) const;

    /** Seed one durable line (restart-from-image path). Implies the
     *  line's channel version map gains an entry; requires tracking
     *  enabled. */
    void seedDurable(Addr line, std::uint64_t version);

    NvramDimm &dimm(unsigned i) { return *channels[i].dimm; }
    unsigned numDimms() const
    {
        return static_cast<unsigned>(channels.size());
    }

    /** Channel @p ci's Memory-mode DRAM cache (nullptr when the
     *  socket runs App Direct). */
    DramCache *dramCache(unsigned ci)
    {
        return channels[ci].dcache.get();
    }

    const StatGroup &stats() const { return statGroup; }

    /** Per-channel counters (WPQ merges/stalls, bus turnarounds). */
    const StatGroup &channelStats(unsigned ci) const
    {
        return channels[ci].stats->group;
    }

    /** WPQ lines currently held in ADR for channel @p ci. */
    std::size_t wpqOccupancy(unsigned ci) const
    {
        return channels[ci].wpqLines.size();
    }

    /** Reads in flight past the RPQ admission for channel @p ci. */
    unsigned rpqInFlight(unsigned ci) const
    {
        return channels[ci].rpqInFlight;
    }

    /**
     * Lifecycle observer (verify=on): the iMC reports the queued /
     * serviced transitions of every request so the checker can
     * re-derive the request state machine. Never owned here.
     */
    verify::RequestLifecycleChecker *lifecycle = nullptr;

    /**
     * Attach tracing: per-channel DDR-T bus tracks (transfer spans
     * with turnaround gaps visible), request lifecycle hops mirrored
     * at the same call sites the lifecycle checker observes, and
     * every DIMM's stage tracks. Pointer only; never owned here.
     */
    void attachTracer(obs::TraceRecorder &rec,
                      const std::string &name);

    /**
     * True when nothing is queued or in flight anywhere on the
     * NVRAM side: WPQs drained, no RPQ reads, no pending fences,
     * no scheduled fence poll. This is the list of the iMC's
     * in-flight state: serialize() REQUIREs it.
     */
    bool quiescent() const;

    /**
     * Serialize per-channel bus state, stats, every DIMM and DRAM
     * cache, and the ADR versions. Requires quiescent().
     */
    void serialize(snapshot::Archive &ar);

  private:
    struct DdrtBus
    {
        Tick freeAt = 0;
        bool lastWasWrite = false;
        bool used = false;
    };

    /** One channel's counters: its own group, listing all four. */
    struct ChannelStats
    {
        explicit ChannelStats(std::string name)
            : group(std::move(name), StatGroup::Listing::All)
        {}

        StatGroup group;
        StatScalar busTurnarounds{group, "bus_turnarounds"};
        StatScalar wpqMerges{group, "wpq_merges"};
        StatScalar wpqStalls{group, "wpq_stalls"};
        StatScalar wpqReadHazards{group, "wpq_read_hazards"};
    };

    struct Channel
    {
        std::unique_ptr<NvramDimm> dimm;
        /** Memory-mode DRAM cache between the channel front-end and
         *  the DIMM (null in App Direct). */
        std::unique_ptr<DramCache> dcache;
        std::unique_ptr<ChannelStats> stats;
        /** WPQ membership (<= wpqEntries lines, linear scan beats a
         *  map at that size and never allocates once reserved). */
        std::vector<Addr> wpqLines;
        /** Write kind per WPQ line, parallel to wpqLines and
         *  OR-merged on WPQ merge: a plain store merging with a
         *  clwb must still write through the Memory-mode cache.
         *  Maintained in both modes (the App Direct drain ignores
         *  it). */
        std::vector<std::uint8_t> wpqKinds;
        FifoRing<Addr> wpqFifo; ///< Drain order.
        FifoRing<RequestHandle> wpqWaiting; ///< Stores a full WPQ stalls.
        bool wpqDrainBusy = false;
        /** Reads blocked on a WPQ line (read-after-write at the
         *  iMC); insertion order per line is release order, exactly
         *  like the multimap this flat vector replaced. */
        std::vector<std::pair<Addr, RequestHandle>> wpqReadHazards;
        /** Drain-time staging for released hazards, hoisted out of
         *  wpqDrain so the event path reuses its capacity. */
        // simlint-transient(scratch: cleared before every use and
        // dead between drains)
        std::vector<RequestHandle> hazardScratch;
        // RPQ.
        unsigned rpqInFlight = 0;
        FifoRing<RequestHandle> rpqWaiting;
        DdrtBus bus;
        /** Issued, not yet past the core-to-iMC hop. */
        unsigned pendingArrivals = 0;
        /** The write-only subset of pendingArrivals: sfences complete
         *  when this is 0 and wpqWaiting is empty on every channel
         *  (reads do not hold an sfence up). */
        unsigned pendingWriteArrivals = 0;
        /**
         * ADR durability record: per 64B line, the id of the last
         * write accepted into this channel's WPQ. Only populated
         * under persistTracking (crash runs).
         */
        std::unordered_map<Addr, std::uint64_t> adrVersions;
    };

    /** WPQ membership probe (linear over <= wpqEntries lines). */
    static bool wpqContains(const Channel &ch, Addr line);

    /** The Memory-mode write kind a store op carries. */
    static std::uint8_t writeKindOf(MemOp op);

    /** OR @p kind into the pending WPQ entry for @p line. */
    static void wpqKindMerge(Channel &ch, Addr line,
                             std::uint8_t kind);

    /**
     * Claim the channel bus for a transfer. @return transfer end
     * (the bus is occupied from the computed start to the end).
     */
    Tick busTransfer(Channel &ch, bool write, std::uint32_t bytes);

    /** Lifecycle/trace observation points (request at the iMC). */
    void noteQueued(RequestHandle h);
    void noteServiced(RequestHandle h);

    /** Complete a write now: ADR's zero-latency completion. */
    void completeWrite(Channel &ch, RequestHandle h);

    void wpqInsert(Channel &ch, Addr line, std::uint8_t kind,
                   RequestHandle h);
    void wpqDrain(unsigned ci);
    void startRead(unsigned ci, RequestHandle h);
    void checkFences();
    void checkSfences();

    EventQueue &eventq;
    /** The owning system's request pool (handles index into it). */
    RequestPool &pool;
    const NvramConfig cfg;
    std::vector<Channel> channels;
    std::vector<RequestHandle> pendingFences;
    bool fencePollScheduled = false;

    /** An sfence held open until its earliest completion tick (the
     *  partial write-combining drain charge) AND ADR acceptance of
     *  every prior write. */
    struct PendingSfence
    {
        RequestHandle h;
        Tick readyAt; ///< Earliest legal completion (WC drain).
    };
    std::vector<PendingSfence> pendingSfences;
    bool sfencePollScheduled = false;
    /** Bytes written into the NT write-combining buffers since the
     *  last sfence; an sfence at a partial cfg.wcBufferBytes fill
     *  pays cfg.wcPartialDrainNs once. Serialized: a warm world may
     *  legitimately carry a partial WC fill across a snapshot. */
    std::uint64_t wcFill = 0;
    /** ADR version tracking toggle (see enablePersistTracking). */
    bool persistTracking = false;

    StatGroup statGroup;
    StatScalar reads{statGroup, "reads"};
    StatScalar writes{statGroup, "writes"};
    StatScalar fences{statGroup, "fences"};
    StatScalar sfences{statGroup, "sfences"};
    StatScalar wcPartialDrains{statGroup, "wc_partial_drains"};

    obs::TraceRecorder *tracer = nullptr;
    /** Trace ids, refilled by attachTracer. */
    struct TraceWiring
    {
        std::uint16_t busRead = 0;
        std::uint16_t busWrite = 0;
        std::vector<std::uint16_t> busTracks; ///< One per channel.
    };
    TraceWiring wiring;
};

} // namespace vans::nvram

#endif // VANS_NVRAM_IMC_HH
