/**
 * @file
 * Two-level TLB model (L1 DTLB + STLB) with a page-walk cost, plus
 * the hook Pre-translation (paper section V-B) uses to inject
 * entries fetched from the NVRAM DIMM.
 *
 * The model is functional (hit/miss + LRU) with latencies charged by
 * the CPU core; it produces the TLB MPKI curves of Figs 5d, 7d and
 * 13e. Each level is one flat SetAssocArray keyed by page number.
 */

#ifndef VANS_CACHE_TLB_HH
#define VANS_CACHE_TLB_HH

#include <cstdint>
#include <string>

#include "cache/set_assoc.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace vans::cache
{

/** Parameters for one TLB level. */
struct TlbParams
{
    std::string name = "tlb";
    unsigned l1Entries = 64;
    unsigned l1Ways = 4;
    unsigned stlbEntries = 1536;
    unsigned stlbWays = 12;
    std::uint64_t pageBytes = 4096;
};

/** Result of one translation. */
struct TlbResult
{
    bool l1Hit = false;
    bool stlbHit = false;
    bool walk = false; ///< Full page-table walk needed.
};

/** L1 + STLB with LRU replacement per set. */
// simlint-hot
class Tlb
{
  public:
    explicit Tlb(const TlbParams &params);

    /** Translate the page of @p addr, filling on miss. */
    TlbResult access(Addr addr);

    /**
     * Install a translation directly (Pre-translation delivery: the
     * TLB entry arrives with the data from the NVRAM DIMM).
     * @return true if the page was not already present.
     */
    bool install(Addr addr);

    /** True if the page of @p addr hits without side effects. */
    bool contains(Addr addr) const;

    /** Misses needing a walk / total accesses. */
    double walkRate() const;

    /** Translations that needed a page walk so far. */
    std::uint64_t walkCount() const { return walks.value(); }

    const StatGroup &stats() const { return statGroup; }

  private:
    /** One level: sets of pages, indexed by the page's low bits. */
    struct Level
    {
        /** Fatal, naming @p tlb and @p which level, unless @p ways
         *  is 1..maxWays and @p entries / @p ways a power of two. */
        Level(const std::string &tlb, const char *which,
              unsigned entries, unsigned ways);

        std::uint64_t setMask;
        SetAssocArray pages;

        bool
        contains(std::uint64_t page) const
        {
            return pages.find(page & setMask, page) != nullptr;
        }

        /** True if present; a hit becomes the set's most recent. */
        bool lookup(std::uint64_t page);
        /** Make @p page the most recent, evicting the LRU if new. */
        void insert(std::uint64_t page);
    };

    std::uint64_t pageOf(Addr addr) const
    {
        return addr / p.pageBytes;
    }

    /** Make @p page, the page of @p addr, the most recent in both
     *  levels; REQUIREs that it fits a way's key. */
    void fill(std::uint64_t page, Addr addr);

    TlbParams p;
    Level l1;
    Level stlb;
    StatGroup statGroup;
    StatScalar accesses{statGroup, "accesses"};
    StatScalar l1Misses{statGroup, "l1_misses"};
    StatScalar walks{statGroup, "walks"};
    StatScalar installs{statGroup, "pretranslation_installs"};
};

} // namespace vans::cache

#endif // VANS_CACHE_TLB_HH
