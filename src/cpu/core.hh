/**
 * @file
 * Trace-driven CPU core model -- the gem5 substitute for the paper's
 * full-system experiments (Figs 11-13).
 *
 * The model is an interval-style out-of-order core: non-memory
 * instructions retire at the pipeline width; independent loads
 * overlap up to an MSHR/MLP limit; dependent (pointer-chasing) loads
 * serialize; stores retire through a store buffer and only stall
 * when it fills. TLB walks charge a fixed walk latency plus a
 * cacheable page-table access. This reproduces the quantities the
 * paper validates on -- IPC, LLC MPKI, TLB MPKI, and read-CPI
 * attribution -- without modeling an ISA.
 */

#ifndef VANS_CPU_CORE_HH
#define VANS_CPU_CORE_HH

#include <cstdint>
#include <deque>
#include <memory>

#include "cache/hierarchy.hh"
#include "common/mem_system.hh"
#include "trace/trace.hh"

namespace vans::cpu
{

/** Core configuration (Table V CPU section). */
struct CoreParams
{
    double freqGhz = 2.2;
    unsigned width = 4;        ///< Retire width (non-mem IPC cap).
    unsigned maxLoads = 10;    ///< MSHR-style load MLP limit.
    unsigned storeBuffer = 56; ///< Outstanding stores before stall.
    double walkFixedNs = 30;   ///< Page-walk control overhead.
    /** Address base for the synthetic page-table accesses. */
    Addr pageTableBase = 3ull << 30;
};

/** Aggregate results of one core run. */
struct CoreStats
{
    std::uint64_t instructions = 0;
    std::uint64_t memReads = 0;
    std::uint64_t memWrites = 0;
    Tick elapsed = 0;
    double ipc = 0;
    double llcMpki = 0;
    double tlbMpki = 0;
    /** Cycle split for Fig 12a: stalls attributable to reads vs
     *  everything else. */
    double readStallNs = 0;
    double otherNs = 0;
};

/** Runs instruction traces against a cache hierarchy + memory. */
class CpuCore
{
  public:
    CpuCore(MemorySystem &mem, cache::Hierarchy &caches,
            const CoreParams &params = {});

    /**
     * Execute up to @p max_insts instructions from @p src.
     * The Pre-translation optimization (when attached via
     * opt::PreTranslation) observes the mkpt markers in the trace.
     */
    CoreStats run(trace::TraceSource &src, std::uint64_t max_insts);

    /** Hook invoked on every load issued to memory (for opt). */
    std::function<bool(const Request &)> loadFilter;

    /**
     * Hook consulted before a TLB walk: return true if an external
     * mechanism (Pre-translation's RLB) already has the entry.
     */
    std::function<bool(Addr)> tlbAssist;

  private:
    /** Advance the event queue to @p when. */
    void syncTo(Tick when);

    /** Issue a memory read, returns a completion flag holder. */
    struct Pending
    {
        bool done = false;
        Tick at = 0;
    };
    std::shared_ptr<Pending> issueRead(Addr addr, bool pre_translate);

    /**
     * Issue a read that must wait for @p after (a page-walk PTE
     * fetch) before going to memory: the translation gates *this*
     * load, not the pipeline -- independent work keeps flowing.
     */
    std::shared_ptr<Pending>
    issueReadAfter(const std::shared_ptr<Pending> &after, Addr addr,
                   bool pre_translate);

    /** The event that issues a translation-gated read (core.cc). */
    struct GatedRead;

    /** Send a read to memory; its completion fills @p pending. */
    RequestHandle startRead(Addr addr, bool pre_translate,
                            const std::shared_ptr<Pending> &pending);

    void issueWrite(Addr addr, MemOp op);

    /** Block until @p p completes; @return completion tick. */
    Tick waitFor(const std::shared_ptr<Pending> &p);

    MemorySystem &mem;
    EventQueue &eq;
    cache::Hierarchy &caches;
    CoreParams p;

    Tick coreTime = 0;
    std::deque<std::shared_ptr<Pending>> loadsInFlight;
    unsigned storesInFlight = 0;
};

} // namespace vans::cpu

#endif // VANS_CPU_CORE_HH
