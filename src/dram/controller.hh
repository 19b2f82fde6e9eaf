/**
 * @file
 * Banked DRAM channel controller with open-page policy and a choice
 * of FCFS or FR-FCFS scheduling.
 *
 * The controller accepts byte-addressed accesses of any size, splits
 * them into cache-line column transactions, and issues ACT/PRE/RD/WR
 * /REF commands respecting the full JEDEC constraint set (tRCD, tRP,
 * tRAS, tRC, tCCD_S/L, tRRD_S/L, tFAW, tWR, tWTR_S/L, tRTP, tRFC,
 * tREFI). An access completes when the last data beat of its last
 * burst leaves (read) or enters (write) the device.
 *
 * The controller is event-driven: after each command it wakes at the
 * tick its next command can issue (or when a new access arrives),
 * never to poll. Each queue keeps a per-bank index of its scheduling
 * window, so a decision visits banks, not queued lines: every window
 * line of one bank that hits its open row shares one earliest-issue
 * tick, and so does every one that misses it. An access schedules one
 * completion event, at its last line's data end.
 *
 * The same controller class serves three masters in this repo: the
 * DDR4 main memory of the baseline systems, the small on-DIMM DRAM
 * that backs the AIT inside the NVRAM DIMM, and (with pcmLike()
 * timing) the Ramulator-style PCM baseline.
 */

#ifndef VANS_DRAM_CONTROLLER_HH
#define VANS_DRAM_CONTROLLER_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/event_queue.hh"
#include "common/fifo_ring.hh"
#include "common/inplace_function.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/address_map.hh"
#include "dram/checker.hh"
#include "dram/command.hh"
#include "dram/timing.hh"

namespace vans::obs
{
class TraceRecorder;
} // namespace vans::obs

namespace vans::dram
{

/** Controller scheduling policy. */
enum class SchedPolicy : std::uint8_t
{
    FCFS,
    FRFCFS,
};

/** One DRAM channel: banks, timing state, request queue. */
// simlint-hot
class DramController
{
  public:
    using DoneCallback = InplaceFunction<void(Tick)>;

    DramController(EventQueue &eq, const DramTiming &timing,
                   const DramGeometry &geometry,
                   SchedPolicy policy = SchedPolicy::FRFCFS,
                   MapScheme map = MapScheme::RowBankCol,
                   std::string name = "dram");
    ~DramController();

    /**
     * Enqueue an access; @p done fires at data completion time.
     * Accesses larger than a line become multiple line transactions
     * over consecutive addresses and complete with the last one.
     */
    void access(Addr addr, bool write, std::uint32_t size,
                DoneCallback done);

    /** Number of queued (incomplete) line transactions. */
    std::size_t
    queueDepth() const
    {
        return readQueue.depth + writeQueue.depth;
    }

    /** Statistics group (row hits, misses, commands, bytes). */
    const StatGroup &stats() const { return statGroup; }

    /** Command trace for the protocol checker. */
    CommandTrace &trace() { return cmdTrace; }

    /**
     * Verified mode: feed every emitted command through an online
     * Ddr4Checker (no trace storage) and panic at teardown on any
     * protocol violation. Auto-enabled for every controller when
     * VANS_VERIFY is set, so all DRAM-touching tests get the checker
     * for free; call this to force it regardless of the environment.
     */
    void enableOnlineCheck();

    /** Online checker (nullptr when verified mode is off). */
    const Ddr4Checker *onlineChecker() const { return checker.get(); }

    /**
     * Attach tracing: one track for this channel, a span per access
     * from enqueue to last data beat. Pointer only (tracebyvalue
     * rule): the recorder lives in the owning memory system.
     */
    void attachTracer(obs::TraceRecorder &rec,
                      const std::string &track_name);

    const DramTiming &timing() const { return spec; }
    const DramGeometry &geometry() const { return map.geometry(); }

    /**
     * Serialize bank/timing state, stats and (when present) the
     * online checker. Requires empty request queues; the command
     * trace is not preserved (a restored world records a fresh
     * trace). A restore re-arms the pending refresh wakeup and
     * REQUIREs the capture to have had an online checker exactly
     * when this controller has one.
     */
    void serialize(snapshot::Archive &ar);

  private:
    static constexpr Tick never = std::numeric_limits<Tick>::max();

    // simlint-transient(Parent fan-in nodes exist only while a line
    // request is in flight; serialize REQUIREs both request queues
    // empty, so none can be live at capture)
    struct Parent
    {
        unsigned remaining; ///< Lines whose CAS has not issued yet.
        DoneCallback done;
    };

    /**
     * One cache-line transaction in a scheduling window. The address
     * is decoded as the line joins the window and not kept.
     */
    // simlint-transient(LineReq entries live in readQueue/writeQueue,
    // which serialize REQUIREs empty -- in-flight requests are never
    // part of a captured world)
    struct LineReq
    {
        Tick enqueueTick = 0;
        std::uint64_t seq = 0;       ///< Arrival order (FCFS).
        std::uint32_t row = 0;
        std::uint32_t parentIdx = 0; ///< Fan-in slot in parents.
        std::uint16_t column = 0;    ///< In cache-line units.
        std::uint16_t bank = 0;      ///< Flattened bank index.
        bool write = false;
        bool classified = false; ///< Hit/miss stat recorded.
    };
    static_assert(sizeof(LineReq) <= 32, "LineReq must stay packed");

    struct BankState
    {
        bool open = false;
        std::uint64_t row = 0;
        Tick actReady = 0; ///< Earliest next ACT.
        Tick casReady = 0; ///< Earliest next RD/WR (row must be open).
        Tick preReady = 0; ///< Earliest next PRE.
    };

    /**
     * One request queue: the lines of its accesses in arrival order.
     * Only the first @c window lines (the scheduling window) can be
     * picked, so only they are line requests: each holds a slot,
     * linked into its bank's list. The lines behind the window wait
     * as one run per access (a starved posted-write queue can hold
     * hundreds of thousands of lines) and are decoded one at a time
     * as they join the window. Lines join only in arrival order -- at
     * enqueue while the window has room, or when a line leaves it --
     * so a list only grows at its tail and stays ordered by seq. Each
     * list also counts the lines that hit the bank's open row: +1/-1
     * as lines join and leave, recounted on ACT, zeroed on PRE and
     * REF. The slots and lists are sized at construction.
     */
    // simlint-transient(serialize REQUIREs both request queues
    // empty, so every window and backlog is empty at capture and a
    // fresh controller's empty queues are the restored state)
    struct Queue
    {
        static constexpr std::uint16_t none = 0xffff;

        /** A window line and its links. */
        struct Slot
        {
            LineReq req;
            std::uint16_t prev = none;
            std::uint16_t next = none; ///< Or the next free slot.
        };

        /** One bank's window lines, oldest first. */
        struct BankList
        {
            std::uint16_t head = none;
            std::uint16_t tail = none;
            std::uint16_t count = 0;
            std::uint16_t hits = 0;     ///< Lines on the open row.
            std::uint16_t activeAt = 0; ///< Position in active.
        };

        /** The lines of one access not yet in the window. */
        struct Run
        {
            DramCoord coord; ///< Of the next line.
            Addr addr = 0;   ///< Of the next line.
            Tick enqueueTick = 0;
            std::uint64_t seq = 0; ///< Of the next line.
            std::uint32_t lines = 0;
            std::uint32_t parentIdx = 0;
        };

        Queue(unsigned window, bool write, unsigned banks);

        bool empty() const { return depth == 0; }

        unsigned window;
        bool write;
        std::size_t depth = 0; ///< Lines in the window and backlog.
        unsigned windowLines = 0;
        std::vector<Slot> slots;
        std::uint16_t freeSlot = 0; ///< Head of the free-slot chain.
        std::vector<BankList> lists;
        /** Banks with window lines, unordered. */
        std::vector<std::uint16_t> active;
        /** Lines behind the window, oldest run first. Ring-buffered:
         *  its warm capacity makes steady-state admission
         *  allocation-free. */
        FifoRing<Run> backlog;
    };

    /**
     * The next command: the tick it issues and the request it serves
     * (no queue: the refresh), or @c at == never when nothing will
     * issue.
     */
    // simlint-transient(a decision is derived from the queues and the
    // timing state; the controller's cached plan is dropped on restore)
    struct Decision
    {
        Tick at;
        Queue *queue = nullptr;
        std::uint16_t slot = 0; ///< The request's window slot.
    };

    /** Flattened bank index. */
    unsigned
    bankIndex(const DramCoord &c) const
    {
        const auto &g = map.geometry();
        return (c.rank * g.bankGroups + c.bankGroup) *
                   g.banksPerGroup + c.bank;
    }

    /** (rank, bank group) index of flattened bank @p bank. */
    unsigned
    groupOf(unsigned bank) const
    {
        return bank / map.geometry().banksPerGroup;
    }

    void scheduleWakeup(Tick when);
    void process();

    /**
     * The next command at or after tick @p t, given the current
     * timing state and queues: what a poll every tick from @p t on
     * would issue first, and when.
     */
    Decision decide(Tick t);

    /**
     * FR-FCFS over @p q's window at the first tick from @p t on that
     * any of its lines can issue: the lowest tick wins, then a row
     * hit, then the lower seq. Only each bank's oldest hit and oldest
     * miss can win, so this visits banks, not lines.
     */
    Decision pick(Queue &q, Tick t);

    /** The oldest window line of @p bank in @p q that hits its open
     *  row (@p hit) or misses it; one must exist. */
    std::uint16_t oldest(const Queue &q, unsigned bank, bool hit) const;

    /** Whether @p row is open in @p bank. */
    bool
    isOpen(unsigned bank, std::uint64_t row) const
    {
        return banks[bank].open && banks[bank].row == row;
    }

    /** Move the next line of @p run, the oldest line behind @p q's
     *  window, into the window. */
    void join(Queue &q, Queue::Run &run);

    /** Remove the line in window slot @p s of @p q, whose CAS has
     *  issued, and move the next line into the window. */
    void retire(Queue &q, std::uint16_t s);

    /** Set both queues' hit counts for @p bank, whose row just opened
     *  or closed. */
    void recountHits(unsigned bank);

    /** Recount @p q's window index: every active bank's lines and
     *  open-row hits, and the lines in the window (audits only). */
    bool indexConsistent(const Queue &q) const;

    bool refreshDue(Tick t) const { return spec.tREFI && t >= nextRefresh; }

    /** Earliest tick every open bank may precharge for refresh. */
    Tick refreshReady() const;

    /** Record @p cmd in the trace and feed the online checker. */
    void emit(DramCmd cmd, Tick at, unsigned bank, std::uint64_t row,
              std::uint64_t column);

    /**
     * Earliest tick the next command of a request to @p bank can
     * issue: its CAS when @p hit (the row is open), else the PRE of a
     * conflicting open row or the ACT of a closed bank. Every queued
     * request of one bank and class shares this tick.
     */
    Tick earliestIssue(unsigned bank, bool hit, bool write) const;

    /** Issue the next required command for @p r at the current tick.
     *  @return true if @p r received its CAS (data scheduled). */
    bool issueFor(LineReq &r);

    void issueAct(const LineReq &r);
    void issuePre(unsigned bank);
    void issueCas(const LineReq &r);
    void doRefresh();

    EventQueue &eventq;
    const DramTiming spec;
    /** spec's durations in ticks, derived from it at construction
     *  and read by every command decision. */
    const DramTicks ticks;
    const AddressMap map;
    const SchedPolicy policy;

    /** Grab a fan-in slot from the recycled parent slab. */
    std::uint32_t allocParent(unsigned remaining, DoneCallback done);
    /** Return a completed fan-in slot to the free list. */
    void releaseParent(std::uint32_t idx);

    std::vector<BankState> banks;
    /** Reads and writes queue separately: reads have strict
     *  priority (writes are posted), and FR-FCFS looks only at a
     *  window of each queue (64 reads, 32 writes; FCFS: the front)
     *  to keep per-command cost constant. */
    Queue readQueue;
    Queue writeQueue;
    /**
     * Recycled fan-in nodes, one per in-flight access (all its line
     * splits share the slot). Index-addressed so slab growth never
     * invalidates a reference held by a scheduled data event.
     */
    // simlint-transient(fan-in slots only carry in-flight accesses,
    // and serialize REQUIREs both request queues empty; the free
    // list rebuilds as a restored world issues fresh accesses)
    std::vector<Parent> parents;
    // simlint-transient(free-list over parents, which are all free at
    // capture since the request queues are REQUIREd empty)
    std::vector<std::uint32_t> freeParents;
    std::uint64_t nextSeq = 0;

    /** Per-(rank,bankgroup) last CAS for tCCD_L / tRRD_L tracking. */
    std::vector<Tick> lastCasInGroup;
    std::vector<Tick> lastActInGroup;
    Tick lastCasAny = 0;
    Tick lastActAny = 0;
    FifoRing<Tick> actWindow; ///< For tFAW.
    Tick lastWrDataEnd = 0;     ///< For tWTR.
    Tick dataBusFree = 0;
    Tick cmdBusFree = 0;

    Tick nextRefresh;
    bool refreshPending = false;

    /** One pending wake-up at wakeupAt; an older wake-up event whose
     *  tick no longer matches is stale and does nothing. */
    bool wakeupScheduled = false;
    Tick wakeupAt = 0;
    /** Schedule the guarded wake-up event for wakeupAt. */
    void armWakeup();
    /** decide() as of the last command; access() invalidates it. */
    // simlint-transient(derived from the queues and timing state, and
    // invalid in a restored controller until its first decision)
    Decision plan{never};
    // simlint-transient(a restored controller starts without a plan)
    bool planValid = false;

    StatGroup statGroup;
    StatScalar rowHits{statGroup, "row_hits"};
    StatScalar rowConflicts{statGroup, "row_conflicts"};
    StatScalar rowMisses{statGroup, "row_misses"};
    StatScalar cmdAct{statGroup, "cmd_act"};
    StatScalar cmdPre{statGroup, "cmd_pre"};
    StatScalar cmdRd{statGroup, "cmd_rd"};
    StatScalar cmdWr{statGroup, "cmd_wr"};
    StatScalar cmdRef{statGroup, "cmd_ref"};
    StatScalar readAccesses{statGroup, "read_accesses"};
    StatScalar writeAccesses{statGroup, "write_accesses"};
    StatScalar bytesRead{statGroup, "bytes_read"};
    StatScalar bytesWritten{statGroup, "bytes_written"};
    StatAverage readLatency{statGroup, "read_latency_ns"};
    StatAverage writeLatency{statGroup, "write_latency_ns"};
    // simlint-transient(the command trace is documented as not
    // preserved across snapshot -- a restored world records a fresh
    // trace, which the snapshot-identity test relies on)
    CommandTrace cmdTrace;
    /** Online protocol checker; allocated only in verified mode. */
    std::unique_ptr<Ddr4Checker> checker;

    obs::TraceRecorder *tracer = nullptr;
    /** Trace ids, refilled by attachTracer. */
    struct TraceWiring
    {
        std::uint16_t track = 0;
        std::uint16_t read = 0;
        std::uint16_t write = 0;
    };
    TraceWiring wiring;
};

} // namespace vans::dram

#endif // VANS_DRAM_CONTROLLER_HH
