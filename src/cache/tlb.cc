#include "cache/tlb.hh"

#include "common/check.hh"
#include "common/logging.hh"

namespace vans::cache
{

namespace
{

/** Sets of one TLB level; fatal on a geometry it cannot hold. */
std::uint64_t
setCount(const std::string &tlb, const char *which, unsigned entries,
         unsigned ways)
{
    if (ways == 0 || ways > SetAssocArray::maxWays)
        fatal("%s %s: %u ways; a set holds 1 to %u", tlb.c_str(), which,
              ways, SetAssocArray::maxWays);
    std::uint64_t sets = entries / ways;
    if (!isPowerOf2(sets))
        fatal("%s %s: set count must be a power of two", tlb.c_str(),
              which);
    return sets;
}

} // namespace

Tlb::Level::Level(const std::string &tlb, const char *which,
                  unsigned entries, unsigned ways)
    : setMask(setCount(tlb, which, entries, ways) - 1),
      pages(setMask + 1, ways)
{}

bool
Tlb::Level::lookup(std::uint64_t page)
{
    std::uint64_t set = page & setMask;
    Way *w = pages.find(set, page);
    if (w)
        pages.touch(set, *w);
    return w != nullptr;
}

void
Tlb::Level::insert(std::uint64_t page)
{
    std::uint64_t set = page & setMask;
    Way *w = pages.find(set, page);
    if (!w) {
        w = &pages.victim(set);
        w->key = page;
    }
    pages.touch(set, *w);
}

Tlb::Tlb(const TlbParams &params)
    : p(params),
      l1(params.name, "L1", params.l1Entries, params.l1Ways),
      stlb(params.name, "STLB", params.stlbEntries, params.stlbWays),
      statGroup(params.name)
{
    if (p.pageBytes == 0)
        fatal("%s: pageBytes must be positive", p.name.c_str());
}

TlbResult
Tlb::access(Addr addr)
{
    std::uint64_t page = pageOf(addr);
    TlbResult r;
    accesses.inc();
    if (l1.lookup(page)) {
        r.l1Hit = true;
        return r;
    }
    l1Misses.inc();
    if (stlb.lookup(page)) {
        r.stlbHit = true;
        l1.insert(page);
        return r;
    }
    walks.inc();
    r.walk = true;
    fill(page, addr);
    return r;
}

bool
Tlb::install(Addr addr)
{
    std::uint64_t page = pageOf(addr);
    bool fresh = !l1.contains(page) && !stlb.contains(page);
    fill(page, addr);
    if (fresh)
        installs.inc();
    return fresh;
}

void
Tlb::fill(std::uint64_t page, Addr addr)
{
    VANS_REQUIRE("tlb", 0, page <= Way::maxKey,
                 "%s L1/STLB: address %llx: page %llx is wider than a "
                 "way's %u-bit key",
                 p.name.c_str(), static_cast<unsigned long long>(addr),
                 static_cast<unsigned long long>(page), Way::keyBits);
    stlb.insert(page);
    l1.insert(page);
}

bool
Tlb::contains(Addr addr) const
{
    std::uint64_t page = pageOf(addr);
    return l1.contains(page) || stlb.contains(page);
}

double
Tlb::walkRate() const
{
    double a = static_cast<double>(accesses.value());
    double w = static_cast<double>(walks.value());
    return a > 0 ? w / a : 0;
}

} // namespace vans::cache
