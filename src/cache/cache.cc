#include "cache/cache.hh"

#include "common/check.hh"
#include "common/logging.hh"

namespace vans::cache
{

namespace
{

/** Sets of the level @p params describes; fatal on a geometry it
 *  cannot hold. */
unsigned
setCount(const CacheParams &params)
{
    const char *name = params.name.c_str();
    if (params.lineBytes == 0)
        fatal("cache %s: lineBytes must be positive", name);
    if (params.ways == 0 || params.ways > SetAssocArray::maxWays)
        fatal("cache %s: %u ways; a set holds 1 to %u", name,
              params.ways, SetAssocArray::maxWays);
    std::uint64_t lines = params.sizeBytes / params.lineBytes;
    if (lines % params.ways != 0)
        fatal("cache %s: size/ways mismatch", name);
    std::uint64_t sets = lines / params.ways;
    if (!isPowerOf2(sets))
        fatal("cache %s: set count must be a power of two", name);
    return static_cast<unsigned>(sets);
}

} // namespace

Cache::Cache(const CacheParams &params)
    : p(params),
      numSets(setCount(params)),
      setShift(log2i(numSets)),
      lines(numSets, params.ways),
      statGroup(params.name)
{}

CacheAccessResult
Cache::access(Addr addr, bool write)
{
    CacheAccessResult res;
    Addr line = addr / p.lineBytes;
    std::uint64_t set = line & (numSets - 1);
    Addr tag = line >> setShift;

    if (Way *w = lines.find(set, tag)) {
        res.hit = true;
        w->dirty = w->dirty || write;
        lines.touch(set, *w);
        hits.inc();
        return res;
    }

    misses.inc();
    VANS_REQUIRE("cache", 0, tag <= Way::maxKey,
                 "%s: address %llx: tag %llx is wider than a way's "
                 "%u-bit key",
                 p.name.c_str(), static_cast<unsigned long long>(addr),
                 static_cast<unsigned long long>(tag), Way::keyBits);
    // Fill into an invalid way when one exists (a clflushopt'd line
    // leaves a free slot behind); only a full set evicts the LRU way.
    Way &victim = lines.victim(set);
    if (victim.rank != 0 && victim.dirty) {
        res.writeback = true;
        res.writebackAddr =
            ((static_cast<Addr>(victim.key) << setShift) | set) *
            p.lineBytes;
        writebacks.inc();
    }
    victim.key = tag;
    victim.dirty = write;
    lines.touch(set, victim);
    return res;
}

bool
Cache::contains(Addr addr) const
{
    Addr line = addr / p.lineBytes;
    return lines.find(line & (numSets - 1), line >> setShift) != nullptr;
}

bool
Cache::invalidate(Addr addr)
{
    Addr line = addr / p.lineBytes;
    std::uint64_t set = line & (numSets - 1);
    Way *w = lines.find(set, line >> setShift);
    if (!w)
        return false;
    bool was_dirty = w->dirty;
    lines.clear(set, *w);
    return was_dirty;
}

bool
Cache::clean(Addr addr)
{
    Addr line = addr / p.lineBytes;
    Way *w = lines.find(line & (numSets - 1), line >> setShift);
    if (!w || !w->dirty)
        return false;
    w->dirty = false;
    return true;
}

double
Cache::missRate() const
{
    double h = static_cast<double>(hits.value());
    double m = static_cast<double>(misses.value());
    return (h + m) > 0 ? m / (h + m) : 0;
}

} // namespace vans::cache
