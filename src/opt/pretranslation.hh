/**
 * @file
 * Pre-translation (paper section V-B): TLB entries for the *next*
 * pointer-chasing access are fetched from an on-DIMM table alongside
 * the data.
 *
 * Components modeled:
 *  - the Pre-translation table: paddr -> next-page pfn, stored in
 *    the on-DIMM DRAM as an AIT-entry extension. First traversal of
 *    a pointer populates it (mkpt update path, Fig 13c); later
 *    traversals deliver (Fig 13b).
 *  - the RLB: a small SRAM buffer of recently used entries on the
 *    CPU side.
 *  - check-before-read: delivered entries may be stale; the async
 *    page-walk validation keeps correctness, and a stale delivery
 *    costs a configurable penalty instead of a saved walk.
 *
 * Integration: attach() wires the object into a CpuCore (tlbAssist
 * hook). The core consults the hook when a dependent load follows a
 * marked (mkpt) load; a true return means the TLB entry arrived
 * with the previous load's data and the walk is skipped.
 */

#ifndef VANS_OPT_PRETRANSLATION_HH
#define VANS_OPT_PRETRANSLATION_HH

#include <cstdint>
#include <list>
#include <unordered_set>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/core.hh"

namespace vans::opt
{

/** Configuration of Pre-translation. */
struct PreTranslationParams
{
    std::uint64_t rlbBytes = 1 << 10;   ///< 1KB RLB (Table V study).
    std::uint64_t tableBytes = 16 << 20; ///< On-DIMM table.
    std::uint64_t entryBytes = 8;
    /** Probability a delivered entry is still valid (page table
     *  unchanged since the mkpt update). */
    double validProb = 0.98;
    std::uint64_t seed = 99;
};

/** CPU/DIMM cooperation state for Pre-translation. */
class PreTranslation
{
  public:
    explicit PreTranslation(const PreTranslationParams &params = {});

    /** Wire into @p core's tlbAssist hook. */
    void attach(cpu::CpuCore &core);

    /**
     * Consulted for a dependent load at @p addr following a marked
     * load. @return true when the entry is delivered and valid (the
     * walk is skipped).
     */
    bool deliver(Addr addr);

    /** mkpt update path: learn the translation for @p addr. */
    void update(Addr addr);

    const StatGroup &stats() const { return statGroup; }

  private:
    std::uint64_t pageOf(Addr addr) const { return addr >> 12; }

    PreTranslationParams p;
    Rng rng;

    /** Pages whose pre-translation entries exist (bounded by the
     *  table capacity with FIFO replacement). */
    std::unordered_set<std::uint64_t> table;
    std::list<std::uint64_t> tableFifo;

    /** RLB: tiny LRU of recently delivered pages. */
    std::list<std::uint64_t> rlb;
    std::unordered_set<std::uint64_t> rlbSet;

    StatGroup statGroup;
    StatScalar tableUpdates{statGroup, "table_updates"};
    StatScalar misses{statGroup, "misses"};
    StatScalar stale{statGroup, "stale"};
    StatScalar deliveries{statGroup, "deliveries"};
};

} // namespace vans::opt

#endif // VANS_OPT_PRETRANSLATION_HH
