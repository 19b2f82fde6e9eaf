#include "opt/lazy_cache.hh"

#include <algorithm>

namespace vans::opt
{

LazyCache::LazyCache(const LazyCacheParams &params)
    : p(params), statGroup("lazy")
{}

void
LazyCache::attach(nvram::NvramDimm &d)
{
    dimm = &d;
    d.ait().writeAbsorber = [this](Addr addr) {
        return absorb(addr);
    };
    d.ait().wearLeveler().onMigration =
        [this](Addr block, std::uint64_t wear) {
            onMigration(block, wear);
        };
}

void
LazyCache::onMigration(Addr block_addr, std::uint64_t wear)
{
    // Priority: wear relative to the threshold that fired the
    // migration. The AIT already pays the migration; reusing its
    // record makes this update free (paper section V-C).
    (void)wear;
    migrationUpdates.inc();
    Addr block = alignDown(block_addr, wearBlockBytes);
    if (hotSet.count(block))
        return;
    hotBlocks.push_front(block);
    hotSet.insert(block);
    while (hotBlocks.size() > p.wlbBlocks) {
        hotSet.erase(hotBlocks.back());
        hotBlocks.pop_back();
    }
}

Addr
LazyCache::insertLz1(Addr line)
{
    lz1.push_front(line);
    lz1Set.insert(line);
    std::uint64_t cap1 = p.lz1Bytes / p.lineBytes;
    if (lz1.size() <= cap1)
        return 0;
    // LZ1 victim cascades into LZ2 (inclusive pair).
    Addr victim = lz1.back();
    lz1.pop_back();
    lz1Set.erase(victim);
    lz2.push_front(victim);
    lz2Set.insert(victim);
    std::uint64_t cap2 = p.lz2Bytes / p.lineBytes;
    if (lz2.size() <= cap2)
        return 0;
    Addr out = lz2.back();
    lz2.pop_back();
    lz2Set.erase(out);
    return out;
}

bool
LazyCache::absorb(Addr addr)
{
    Addr line = lineOf(addr);

    // Hit in LZ1: refresh and absorb.
    if (lz1Set.count(line)) {
        auto it = std::find(lz1.begin(), lz1.end(), line);
        lz1.splice(lz1.begin(), lz1, it);
        absorbedWrites.inc();
        return true;
    }
    // Hit in LZ2: promote back into LZ1.
    if (lz2Set.count(line)) {
        auto it = std::find(lz2.begin(), lz2.end(), line);
        lz2.erase(it);
        lz2Set.erase(line);
        Addr wb = insertLz1(line);
        if (wb && dimm) {
            // Dirty LZ2 victim: real media write with wear.
            dimm->ait().wearLeveler().onMediaWrite(wb);
            dimm->ait().mediaDev().writeChunk(wb, nullptr);
            writebacks.inc();
        }
        absorbedWrites.inc();
        return true;
    }

    // Allocate only for wear-hot candidates.
    Addr block = alignDown(line, wearBlockBytes);
    if (!hotSet.count(block))
        return false;
    Addr wb = insertLz1(line);
    if (wb && dimm) {
        dimm->ait().wearLeveler().onMediaWrite(wb);
        dimm->ait().mediaDev().writeChunk(wb, nullptr);
        writebacks.inc();
    }
    absorbedWrites.inc();
    return true;
}

} // namespace vans::opt
