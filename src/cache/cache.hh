/**
 * @file
 * Set-associative cache model (functional hits/misses + LRU + dirty
 * eviction tracking) over one flat SetAssocArray per level.
 *
 * The caches are functional: they answer hit/miss and produce victim
 * writebacks; the CPU core charges the per-level latencies and
 * drives memory for misses. That split keeps the cache model simple
 * while still producing the quantities the paper's full-system
 * experiments need -- LLC MPKI (Table IV / Fig 11b), the read-miss
 * attribution of Fig 12a, and the writeback traffic that reaches the
 * NVRAM write path.
 */

#ifndef VANS_CACHE_CACHE_HH
#define VANS_CACHE_CACHE_HH

#include <cstdint>
#include <string>

#include "cache/set_assoc.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace vans::cache
{

/** Geometry and latency of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 << 10;
    unsigned ways = 8;
    std::uint32_t lineBytes = 64;
    double hitLatencyNs = 1.5;
};

/** Result of one cache access. */
struct CacheAccessResult
{
    bool hit = false;
    bool writeback = false; ///< A dirty victim was evicted.
    Addr writebackAddr = 0;
};

/** One set-associative write-back cache level. */
// simlint-hot
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Access @p addr; on miss the line is filled (possibly evicting
     * a dirty victim, reported in the result). @p write marks the
     * line dirty.
     */
    CacheAccessResult access(Addr addr, bool write);

    /** Probe without side effects. */
    bool contains(Addr addr) const;

    /** Invalidate a line if present. @return true if it was dirty. */
    bool invalidate(Addr addr);

    /** Flush a line (clwb): clears dirty, keeps the line. @return
     *  true if it was dirty (a writeback is due). */
    bool clean(Addr addr);

    const CacheParams &params() const { return p; }
    const StatGroup &stats() const { return statGroup; }

    double missRate() const;

    /** Accesses that missed this level so far. */
    std::uint64_t missCount() const { return misses.value(); }

  private:
    CacheParams p;
    unsigned numSets;
    unsigned setShift; ///< log2(numSets): line number -> tag.
    SetAssocArray lines;
    StatGroup statGroup;
    StatScalar hits{statGroup, "hits"};
    StatScalar misses{statGroup, "misses"};
    StatScalar writebacks{statGroup, "writebacks"};
};

} // namespace vans::cache

#endif // VANS_CACHE_CACHE_HH
