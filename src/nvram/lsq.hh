/**
 * @file
 * On-DIMM load-store queue (LSQ) model: 64 x 64B entries (4KB),
 * the write-combining stage the paper reverse engineers in sections
 * III-C and IV-A.
 *
 * Incoming 64B writes from the DDR-T bus are grouped by their 256B
 * parent block. A group drains to the RMW buffer when:
 *  - it is complete (all four 64B lines present): drains immediately
 *    as one combined 256B write, skipping the RMW fill;
 *  - its oldest entry exceeds the combining epoch: drains partial
 *    (sub-256B -> triggers read-modify-write downstream);
 *  - a fence seals the queue: every group becomes drain-eligible;
 *  - occupancy crosses the high watermark: oldest group drains.
 *
 * Reads probe the LSQ; a hit on a pending write is a read-after-
 * write hazard that force-drains the group and makes the read wait
 * until the line reaches the RMW buffer -- the mechanism behind the
 * elevated RaW latency of Fig 5c and its convergence at the 4KB LSQ
 * capacity.
 */

#ifndef VANS_NVRAM_LSQ_HH
#define VANS_NVRAM_LSQ_HH

#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "common/event_queue.hh"
#include "common/inplace_function.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "nvram/nvram_config.hh"
#include "nvram/rmw_buffer.hh"

namespace vans::nvram
{

/** Write-combining load-store queue in the DIMM controller. */
// simlint-hot
class Lsq
{
  public:
    using DoneCallback = InplaceFunction<void(Tick)>;

    Lsq(EventQueue &eq, const NvramConfig &cfg, RmwBuffer &rmw,
        const std::string &name);

    /** True while a 64B write can be admitted. */
    bool canAcceptWrite(Addr addr) const;

    /** Admit one 64B write arriving from the bus. */
    void acceptWrite(Addr addr);

    /**
     * Probe for a read to @p addr (64B). If the line is pending
     * here, the group is force-drained and @p hazard_done fires once
     * the line has reached the RMW buffer (the caller then reads the
     * RMW buffer). @return true if a hazard was found.
     */
    bool readProbe(Addr addr, DoneCallback hazard_done);

    /**
     * Side-effect-free peek: would a read to @p addr (64B) hit a
     * pending write here? Lets callers decide which callback to
     * build before committing to the readProbe force-drain.
     */
    bool pendingLine(Addr addr) const;

    /** Seal every group (fence semantics: closes combining epochs). */
    void seal();

    /** Registered by the iMC to learn about freed entries. */
    InplaceFunction<void()> onSpaceFreed;

    /** Entries currently held. */
    std::size_t occupancy() const { return numEntries; }

    /** True when no writes are pending here or in the drain latch. */
    bool
    writeQuiescent() const
    {
        return groups.empty() && drainLatch == 0;
    }

    /** Snapshot precondition: empty and no scheduled drain check. */
    bool
    quiescent() const
    {
        return writeQuiescent() && numEntries == 0 &&
               drainCheckAt == never;
    }

    const StatGroup &stats() const { return statGroup; }

    /**
     * Attach tracing: one track showing group-drain spans (block
     * address annotated), read-after-write hazard instants, and an
     * occupancy counter series. Pointer only.
     */
    void attachTracer(obs::TraceRecorder &rec,
                      const std::string &track_name);

    /**
     * Serialize stats. Requires quiescent(): the queue is empty, so
     * stats are the only state.
     */
    void serialize(snapshot::Archive &ar);

  private:
    static constexpr Tick never = std::numeric_limits<Tick>::max();

    struct Group
    {
        Addr block; ///< 256B-aligned.
        std::uint8_t presentMask = 0;
        Tick oldest = 0;
        Tick lastTouch = 0;
        bool sealed = false;
        bool draining = false;
        std::vector<DoneCallback> hazardWaiters;
    };

    Addr blockOf(Addr addr) const { return alignDown(addr,
                                                     cfg.rmwLineBytes); }
    unsigned linesPerBlock() const
    {
        return cfg.rmwLineBytes / cacheLineSize;
    }
    bool groupFull(const Group &g) const
    {
        return g.presentMask ==
               ((1u << linesPerBlock()) - 1u);
    }
    unsigned popcount(std::uint8_t m) const
    {
        return static_cast<unsigned>(__builtin_popcount(m));
    }

    void scheduleDrainCheck(Tick when);
    void drain();
    void startGroupDrain(Group &g);

    /** Open a fresh group for @p block, reusing a recycled map node
     *  (and its hazard-waiter capacity) when one is available. */
    Group &openGroup(Addr block);

    /** Recount entries from the present masks (audits only). */
    std::size_t countedEntries() const;

    EventQueue &eventq;
    const NvramConfig cfg;
    RmwBuffer &rmw;

    std::map<Addr, Group> groups; ///< Ordered: stable iteration.
    /** Extracted map nodes recycled between group open and drain, so
     *  steady-state write traffic churns no map-node allocations. */
    // simlint-transient(a pure allocation cache: holds no simulated
    // state, only empty recycled nodes)
    std::vector<std::map<Addr, Group>::node_type> freeGroups;
    std::size_t numEntries = 0;
    unsigned drainLatch = 0; ///< Groups between LSQ and RMW accept.
    /** The pending drain check's tick; never when none is pending. */
    Tick drainCheckAt = never;

    StatGroup statGroup;
    StatScalar writeMerges{statGroup, "write_merges"};
    StatScalar writes{statGroup, "writes"};
    StatScalar rawHazards{statGroup, "raw_hazards"};
    StatScalar seals{statGroup, "seals"};
    StatScalar combinedDrains{statGroup, "combined_drains"};
    StatScalar partialDrains{statGroup, "partial_drains"};
    StatAverage drainLines{statGroup, "drain_lines"};

    obs::TraceRecorder *tracer = nullptr;
    /** Trace ids, refilled by attachTracer. */
    struct TraceWiring
    {
        std::uint16_t track = 0;
        std::uint16_t drain = 0;
        std::uint16_t hazard = 0;
        std::uint16_t occupancy = 0;
    };
    TraceWiring wiring;
};

} // namespace vans::nvram

#endif // VANS_NVRAM_LSQ_HH
