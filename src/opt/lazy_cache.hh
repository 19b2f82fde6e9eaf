/**
 * @file
 * Lazy cache (paper section V-C): a tiny on-DIMM write cache for
 * wear-hot data.
 *
 * Two inclusive levels -- LZ1 (1KB, hottest) and LZ2 (2KB) -- plus a
 * Write Lookaside Buffer (WLB) holding the addresses of cached
 * lines. The cache is fed by the wear-leveler: when a migration
 * triggers, the migrated block's lines become lazy-cache candidates,
 * and subsequent writes to them are absorbed -- no media write, no
 * wear -- until evicted. Persistence rides on the existing ADR
 * domain (the 3KB total is far below the other on-DIMM buffers).
 *
 * Integration: attach() wires the cache into a VANS DIMM through
 * the AIT's writeAbsorber hook and the wear-leveler's onMigration
 * hook; detach by destroying the object.
 */

#ifndef VANS_OPT_LAZY_CACHE_HH
#define VANS_OPT_LAZY_CACHE_HH

#include <cstdint>
#include <list>
#include <unordered_map>
#include <unordered_set>

#include "common/stats.hh"
#include "common/types.hh"
#include "nvram/dimm.hh"

namespace vans::opt
{

/** Configuration of the lazy cache. */
struct LazyCacheParams
{
    std::uint64_t lz1Bytes = 1 << 10;
    std::uint64_t lz2Bytes = 2 << 10;
    std::uint32_t lineBytes = 256; ///< Absorb granularity (chunks).
    /** Wear count (relative to the migration threshold) above which
     *  a migrated block's lines become candidates. */
    double priorityThreshold = 1.0;
    /** How many recently migrated blocks the WLB protects. */
    unsigned wlbBlocks = 8;
};

/** The 2-level lazy write cache. */
class LazyCache
{
  public:
    explicit LazyCache(const LazyCacheParams &params = {});

    /** Wire into @p dimm (AIT absorber + wear migration hooks). */
    void attach(nvram::NvramDimm &dimm);

    /**
     * Absorption decision for a 256B write at @p addr. Allocates
     * into LZ1 on candidate hits; LZ1 victims cascade to LZ2; LZ2
     * victims write back to media.
     */
    bool absorb(Addr addr);

    /** Called when a migration of @p block_addr begins. */
    void onMigration(Addr block_addr, std::uint64_t wear);

    const StatGroup &stats() const { return statGroup; }

    std::uint64_t absorbed() const
    {
        return absorbedWrites.value();
    }

  private:
    Addr lineOf(Addr addr) const
    {
        return alignDown(addr, p.lineBytes);
    }

    /** LRU insert with cascade; returns evicted line or 0. */
    Addr insertLz1(Addr line);

    LazyCacheParams p;
    nvram::NvramDimm *dimm = nullptr;

    std::list<Addr> lz1; ///< Front = most recent.
    std::list<Addr> lz2;
    std::unordered_set<Addr> lz1Set;
    std::unordered_set<Addr> lz2Set;

    /** WLB: wear-hot blocks whose writes should be cached. */
    std::list<Addr> hotBlocks;
    std::unordered_set<Addr> hotSet;
    std::uint64_t wearBlockBytes = 64 << 10;

    StatGroup statGroup;
    StatScalar absorbedWrites{statGroup, "absorbed"};
    StatScalar writebacks{statGroup, "writebacks"};
    StatScalar migrationUpdates{statGroup, "migration_updates"};
};

} // namespace vans::opt

#endif // VANS_OPT_LAZY_CACHE_HH
