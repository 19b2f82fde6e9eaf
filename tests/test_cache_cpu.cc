/**
 * @file
 * Tests for the cache hierarchy, TLB, trace-driven CPU core, and
 * workload generators.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <list>
#include <vector>

#include "baselines/dram_system.hh"
#include "cache/hierarchy.hh"
#include "common/rng.hh"
#include "cpu/core.hh"
#include "tests/test_util.hh"
#include "trace/trace.hh"
#include "workloads/cloud.hh"
#include "workloads/spec_synth.hh"

using namespace vans;
using namespace vans::cache;
using vans::test::VansFixture;

// ---- Cache -----------------------------------------------------------

TEST(Cache, HitAfterFill)
{
    Cache c(CacheParams{"c", 4096, 4, 64, 1.0});
    EXPECT_FALSE(c.access(0, false).hit);
    EXPECT_TRUE(c.access(0, false).hit);
    EXPECT_TRUE(c.access(32, false).hit); // Same line.
    EXPECT_FALSE(c.access(64, false).hit);
}

TEST(Cache, LruEviction)
{
    // 4 sets x 2 ways of 64B lines = 512B.
    Cache c(CacheParams{"c", 512, 2, 64, 1.0});
    // Fill both ways of set 0 (stride = 4 sets * 64).
    c.access(0, false);
    c.access(256, false);
    EXPECT_TRUE(c.access(0, false).hit);
    // Insert a third line in set 0: LRU victim is 256.
    c.access(512, false);
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(256));
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    // 512B, 2 ways, 4 sets: addresses 0/256/512 all map to set 0.
    Cache c(CacheParams{"c", 512, 2, 64, 1.0});
    c.access(0, true);     // Dirty, MRU.
    c.access(256, false);  // Clean; LRU is now 0.
    auto r = c.access(512, false); // Evicts 0: dirty writeback.
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.writebackAddr, 0u);
    // A clean victim reports no writeback.
    r = c.access(768, false); // Evicts 256 (clean).
    EXPECT_FALSE(r.writeback);
}

TEST(Cache, CleanClearsDirty)
{
    Cache c(CacheParams{"c", 512, 2, 64, 1.0});
    c.access(0, true);
    EXPECT_TRUE(c.clean(0));  // Was dirty.
    EXPECT_FALSE(c.clean(0)); // Now clean.
    EXPECT_TRUE(c.contains(0));
}

TEST(Cache, InvalidateReportsDirty)
{
    Cache c(CacheParams{"c", 512, 2, 64, 1.0});
    c.access(0, true);
    EXPECT_TRUE(c.invalidate(0));
    EXPECT_FALSE(c.contains(0));
}

// Regression: access() always victimized lruOrder.back(), even when
// an invalidated way sat free in the set. After a clflushopt the
// next fill evicted a live (possibly dirty) neighbour while the
// freed way stayed unused -- so clflushopt effectively cost *two*
// lines and a spurious dirty writeback.
TEST(Cache, FillPrefersInvalidatedWayOverLruVictim)
{
    // 512B, 2 ways, 4 sets: addresses 0/256/512 all map to set 0.
    Cache c(CacheParams{"c", 512, 2, 64, 1.0});
    c.access(0, true);    // A, dirty.
    c.access(256, false); // B, clean; LRU order is now [B, A].
    c.invalidate(256);    // clflushopt B: its way is free.
    // Fill C: it must land in B's freed way, not evict dirty A.
    auto r = c.access(512, false);
    EXPECT_FALSE(r.writeback)
        << "fill evicted a live dirty line past a free way";
    EXPECT_TRUE(c.contains(0));
    EXPECT_TRUE(c.contains(512));
    EXPECT_TRUE(c.access(0, false).hit);
}

// The Empirical Guide's post-flush contract for the two flush ops:
// clwb leaves the line resident (the next access hits), clflushopt
// evicts it (the next access misses) without disturbing neighbours.
TEST(Hierarchy, ClwbStaysResidentClflushoptEvicts)
{
    Hierarchy h;

    // clwb: writeback due, line still resident at L1.
    h.access(0x40, true);
    EXPECT_TRUE(h.clean(0x40));
    EXPECT_EQ(h.access(0x40, false).hitLevel, 1u);

    // clflushopt: writeback due, next access is a full LLC miss.
    h.access(0x80, true);
    EXPECT_TRUE(h.invalidate(0x80));
    EXPECT_TRUE(h.access(0x80, false).llcMiss);

    // Flushing a clean line owes no writeback either way.
    EXPECT_FALSE(h.clean(0x40));
    EXPECT_FALSE(h.invalidate(0x100));
}

TEST(Cache, MissRateTracked)
{
    Cache c(CacheParams{"c", 4096, 4, 64, 1.0});
    c.access(0, false);
    c.access(0, false);
    c.access(0, false);
    c.access(0, false);
    EXPECT_NEAR(c.missRate(), 0.25, 1e-9);
}

// ---- TLB --------------------------------------------------------------

TEST(Tlb, WalkOnColdMiss)
{
    Tlb t(TlbParams{});
    auto r = t.access(0);
    EXPECT_TRUE(r.walk);
    r = t.access(64);
    EXPECT_TRUE(r.l1Hit); // Same page.
}

TEST(Tlb, StlbCatchesL1Evictions)
{
    TlbParams p;
    p.l1Entries = 8;
    p.l1Ways = 4;
    Tlb t(p);
    // Touch many pages: L1 (8 entries) thrashes, STLB holds them.
    for (Addr pg = 0; pg < 64; ++pg)
        t.access(pg * 4096);
    auto r = t.access(0);
    EXPECT_TRUE(r.l1Hit || r.stlbHit);
    EXPECT_FALSE(r.walk);
}

TEST(Tlb, InstallSkipsWalk)
{
    Tlb t(TlbParams{});
    EXPECT_TRUE(t.install(8ull << 30));
    auto r = t.access(8ull << 30);
    EXPECT_FALSE(r.walk);
    EXPECT_FALSE(t.install(8ull << 30)); // Already present.
}

TEST(Tlb, WalkRateOverRandomPages)
{
    Tlb t(TlbParams{});
    Rng rng(3);
    // Far more pages than the 1536-entry STLB covers.
    for (int i = 0; i < 20000; ++i)
        t.access(rng.below(100000) * 4096);
    EXPECT_GT(t.walkRate(), 0.5);
}

// ---- Replacement rule against a std::list reference ------------------

namespace
{

/**
 * The replacement rule as a std::list of way indices per set, front =
 * most recent: a hit moves its way to the front; a miss fills the
 * invalid way nearest the front, else evicts the back. The oracle the
 * flat Cache is compared against.
 */
class ListCache
{
  public:
    ListCache(unsigned sets, unsigned ways, std::uint32_t line_bytes)
        : numSets(sets), lineBytes(line_bytes),
          lines(sets, std::vector<Line>(ways)), order(sets)
    {
        for (auto &o : order)
            for (unsigned w = 0; w < ways; ++w)
                o.push_back(w);
    }

    CacheAccessResult
    access(Addr addr, bool write)
    {
        auto [set, tag] = locate(addr);
        std::list<unsigned> &o = order[set];
        CacheAccessResult r;
        auto victim = std::prev(o.end());
        for (auto it = o.begin(); it != o.end(); ++it) {
            Line &l = lines[set][*it];
            if (l.valid && l.tag == tag) {
                l.dirty = l.dirty || write;
                o.splice(o.begin(), o, it);
                r.hit = true;
                return r;
            }
        }
        for (auto it = o.begin(); it != o.end(); ++it) {
            if (!lines[set][*it].valid) {
                victim = it;
                break;
            }
        }
        Line &l = lines[set][*victim];
        if (l.valid && l.dirty) {
            r.writeback = true;
            r.writebackAddr = (l.tag * numSets + set) * lineBytes;
        }
        l = Line{tag, true, write};
        o.splice(o.begin(), o, victim);
        return r;
    }

    bool contains(Addr addr) { return find(addr) != nullptr; }

    bool
    invalidate(Addr addr)
    {
        Line *l = find(addr);
        bool dirty = l && l->dirty;
        if (l)
            *l = Line{};
        return dirty;
    }

    bool
    clean(Addr addr)
    {
        Line *l = find(addr);
        bool dirty = l && l->dirty;
        if (l)
            l->dirty = false;
        return dirty;
    }

    /** Invalid ways of the set of @p addr while it holds a valid one. */
    unsigned
    freeBesideLive(Addr addr) const
    {
        unsigned free = 0, live = 0;
        for (const Line &l : lines[locate(addr).first])
            (l.valid ? live : free) += 1;
        return live ? free : 0;
    }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
    };

    std::pair<std::uint64_t, Addr>
    locate(Addr addr) const
    {
        Addr line = addr / lineBytes;
        return {line % numSets, line / numSets};
    }

    Line *
    find(Addr addr)
    {
        auto [set, tag] = locate(addr);
        for (Line &l : lines[set])
            if (l.valid && l.tag == tag)
                return &l;
        return nullptr;
    }

    std::uint64_t numSets;
    std::uint32_t lineBytes;
    std::vector<std::vector<Line>> lines;
    std::vector<std::list<unsigned>> order;
};

/** The TLB rule as a std::list of pages per set, front = most recent;
 *  an insert past the set's ways drops the back. */
class ListTlb
{
  public:
    explicit ListTlb(const TlbParams &tp)
        : p(tp),
          l1{tp.l1Entries / tp.l1Ways, tp.l1Ways, {}},
          stlb{tp.stlbEntries / tp.stlbWays, tp.stlbWays, {}}
    {
        l1.data.resize(l1.sets);
        stlb.data.resize(stlb.sets);
    }

    TlbResult
    access(Addr addr)
    {
        std::uint64_t page = addr / p.pageBytes;
        TlbResult r;
        if (l1.lookup(page, true)) {
            r.l1Hit = true;
        } else if (stlb.lookup(page, true)) {
            r.stlbHit = true;
            l1.insert(page);
        } else {
            r.walk = true;
            stlb.insert(page);
            l1.insert(page);
        }
        return r;
    }

    bool
    install(Addr addr)
    {
        std::uint64_t page = addr / p.pageBytes;
        bool fresh = !l1.lookup(page, false) && !stlb.lookup(page, false);
        stlb.insert(page);
        l1.insert(page);
        return fresh;
    }

    bool
    contains(Addr addr)
    {
        std::uint64_t page = addr / p.pageBytes;
        return l1.lookup(page, false) || stlb.lookup(page, false);
    }

  private:
    struct Level
    {
        unsigned sets;
        unsigned ways;
        std::vector<std::list<std::uint64_t>> data;

        bool
        lookup(std::uint64_t page, bool bump)
        {
            auto &set = data[page % sets];
            for (auto it = set.begin(); it != set.end(); ++it) {
                if (*it == page) {
                    if (bump)
                        set.splice(set.begin(), set, it);
                    return true;
                }
            }
            return false;
        }

        void
        insert(std::uint64_t page)
        {
            if (lookup(page, true))
                return;
            auto &set = data[page % sets];
            set.push_front(page);
            if (set.size() > ways)
                set.pop_back();
        }
    };

    TlbParams p;
    Level l1;
    Level stlb;
};

struct CacheShape
{
    unsigned sets;
    unsigned ways;
};

/**
 * Drive a sets x ways cache of @p line-byte lines and the list
 * oracle with one random stream over the lines base + k + hi x
 * stride, k below three lines per way and hi below 4, and compare
 * every answer.
 */
void
cacheDifferential(CacheShape g, std::uint32_t line, Addr base,
                  Addr stride)
{
    Cache dut(CacheParams{"dut", std::uint64_t{g.sets} * g.ways * line,
                          g.ways, line, 1.0});
    ListCache ref(g.sets, g.ways, line);
    Rng rng(g.sets * 131 + g.ways);
    // Three lines per way keep every set busy with hits, evictions
    // and refills; the hi offsets exercise the upper tag bits.
    std::uint64_t pool = std::uint64_t{g.sets} * g.ways * 3;
    auto addr = [&](Addr k, Addr hi) {
        return (base + k + hi * stride) * line;
    };
    auto pick = [&] {
        Addr k = rng.below(pool);
        Addr hi = rng.below(4);
        return addr(k, hi) + rng.below(line);
    };
    unsigned most_free = 0;
    for (int op = 0; op < 40000; ++op) {
        Addr a = pick();
        unsigned kind = static_cast<unsigned>(rng.below(20));
        if (kind < 11) {
            bool w = rng.below(3) == 0;
            CacheAccessResult x = dut.access(a, w);
            CacheAccessResult y = ref.access(a, w);
            ASSERT_EQ(x.hit, y.hit) << "op " << op;
            ASSERT_EQ(x.writeback, y.writeback) << "op " << op;
            ASSERT_EQ(x.writebackAddr, y.writebackAddr) << "op " << op;
        } else if (kind < 13) {
            ASSERT_EQ(dut.clean(a), ref.clean(a)) << "op " << op;
        } else if (kind < 16) {
            ASSERT_EQ(dut.contains(a), ref.contains(a)) << "op " << op;
        } else if (kind < 19) {
            ASSERT_EQ(dut.invalidate(a), ref.invalidate(a))
                << "op " << op;
        } else {
            // clflushopt about half the lines one set can hold: the
            // set is left with several freed ways beside live ones,
            // and the next fills must use them.
            std::uint64_t set = rng.below(g.sets);
            for (std::uint64_t k = set; k < pool; k += g.sets) {
                for (Addr hi = 0; hi < 4; ++hi) {
                    Addr v = addr(k, hi);
                    if (rng.below(2)) {
                        ASSERT_EQ(dut.invalidate(v), ref.invalidate(v))
                            << "op " << op;
                    }
                }
            }
            most_free = std::max(most_free,
                                 ref.freeBesideLive(addr(set, 0)));
        }
    }
    EXPECT_GE(most_free, std::min(3u, g.ways - 1))
        << "no set held several freed ways beside a live one";
    for (std::uint64_t k = 0; k < pool; ++k)
        ASSERT_EQ(dut.contains(addr(k, 0)), ref.contains(addr(k, 0)));
}

} // namespace

TEST(CacheDifferential, MatchesListReferenceOnRandomStreams)
{
    for (CacheShape g : {CacheShape{1, 16}, CacheShape{4, 2},
                         CacheShape{64, 8}}) {
        SCOPED_TRACE(testing::Message() << g.sets << "x" << g.ways);
        cacheDifferential(g, 64, 0, Addr{1} << 34);
    }
}

TEST(CacheDifferential, MatchesListReferenceAtTheWidestKeys)
{
    // Every tag has the key's top bit set and the hi offsets move
    // the two bits below it, so a tag that lost a bit, or spilled
    // into the rank or the dirty bit, diverges from the oracle.
    // 8-byte lines keep the widest tags of 64 sets inside 64-bit
    // addresses.
    constexpr std::uint32_t line = 8;
    for (CacheShape g : {CacheShape{1, 16}, CacheShape{4, 2},
                         CacheShape{64, 8}}) {
        SCOPED_TRACE(testing::Message() << g.sets << "x" << g.ways);
        Addr end = (Way::maxKey + 1) * g.sets; // One past the top line.
        Addr stride = Addr{g.sets} << (Way::keyBits - 3);
        Addr pool = std::uint64_t{g.sets} * g.ways * 3;
        cacheDifferential(g, line, end - pool - 3 * stride, stride);
    }
}

namespace
{

/** The TLB counterpart of cacheDifferential, over the pages
 *  base + k + hi x stride, k below twice the STLB's reach. */
void
tlbDifferential(const TlbParams &tp, Addr base, Addr stride)
{
    Tlb dut(tp);
    ListTlb ref(tp);
    Rng rng(tp.stlbEntries);
    // Twice the STLB's reach: hits in both levels, STLB refills of
    // L1 misses, walks that evict.
    std::uint64_t pages = 2ull * tp.stlbEntries;
    for (int op = 0; op < 60000; ++op) {
        Addr k = rng.below(pages);
        Addr hi = rng.below(4);
        Addr a = (base + k + hi * stride) * tp.pageBytes +
                 rng.below(tp.pageBytes);
        unsigned kind = static_cast<unsigned>(rng.below(10));
        if (kind < 7) {
            TlbResult x = dut.access(a);
            TlbResult y = ref.access(a);
            ASSERT_EQ(x.l1Hit, y.l1Hit) << "op " << op;
            ASSERT_EQ(x.stlbHit, y.stlbHit) << "op " << op;
            ASSERT_EQ(x.walk, y.walk) << "op " << op;
        } else if (kind < 8) {
            ASSERT_EQ(dut.install(a), ref.install(a)) << "op " << op;
        } else {
            ASSERT_EQ(dut.contains(a), ref.contains(a)) << "op " << op;
        }
    }
}

TlbParams
smallTlb()
{
    TlbParams small;
    small.l1Entries = 8;
    small.l1Ways = 4;
    small.stlbEntries = 48;
    small.stlbWays = 12;
    return small;
}

} // namespace

TEST(TlbDifferential, MatchesListReferenceOnRandomStreams)
{
    for (const TlbParams &tp : {TlbParams{}, smallTlb()}) {
        SCOPED_TRACE(testing::Message() << tp.stlbEntries << "-entry STLB");
        tlbDifferential(tp, 0, Addr{1} << 30);
    }
}

TEST(TlbDifferential, MatchesListReferenceAtTheWidestKeys)
{
    // Pages with the key's top bit set, as in the cache test above;
    // 256-byte pages keep them inside 64-bit addresses.
    for (TlbParams tp : {TlbParams{}, smallTlb()}) {
        SCOPED_TRACE(testing::Message() << tp.stlbEntries << "-entry STLB");
        tp.pageBytes = 256;
        Addr stride = Addr{1} << (Way::keyBits - 3);
        Addr pages = 2ull * tp.stlbEntries;
        tlbDifferential(tp, Way::maxKey + 1 - pages - 3 * stride, stride);
    }
}

TEST(SetAssocArray, WayIsOneWordOfDisjointFields)
{
    EXPECT_EQ(sizeof(Way), 8u);
    EXPECT_EQ(Way::keyBits + 8 + 1, 64u);
    Way w{};
    w.key = Way::maxKey;
    EXPECT_EQ(w.rank, 0u);
    EXPECT_EQ(w.dirty, 0u);
    w.rank = SetAssocArray::maxWays;
    w.dirty = 1;
    EXPECT_EQ(w.key, Way::maxKey);
    w.key = 0;
    EXPECT_EQ(w.rank, SetAssocArray::maxWays);
    EXPECT_EQ(w.dirty, 1u);
}

TEST(CacheDeathTest, KeyWiderThanAWayFailsNamingTheLevel)
{
    // One 16-way set of 64 B lines: the tag is the line number, so
    // line maxKey fits and line maxKey + 1 is one bit too wide.
    Cache c(CacheParams{"llc", 16 * 64, 16, 64, 16.0});
    Addr widest = Way::maxKey * 64;
    Addr too_wide = (Way::maxKey + 1) * 64;
    c.access(0, true);
    EXPECT_FALSE(c.access(widest, true).hit);
    EXPECT_TRUE(c.contains(widest));
    // A lookup never aliases the too-wide tag onto tag 0.
    EXPECT_FALSE(c.contains(too_wide));
    EXPECT_FALSE(c.clean(too_wide));
    EXPECT_FALSE(c.invalidate(too_wide));
    EXPECT_TRUE(c.contains(0));
    EXPECT_DEATH(c.access(too_wide, false),
                 "llc: address 2000000000000000: tag 80000000000000 is "
                 "wider than a way's 55-bit key");
}

TEST(TlbDeathTest, PageWiderThanAWayFailsNamingTheLevel)
{
    TlbParams p;
    p.name = "dtlb";
    p.pageBytes = 256;
    Tlb t(p);
    Addr widest = Way::maxKey * 256;
    Addr too_wide = (Way::maxKey + 1) * 256;
    t.access(0);
    EXPECT_TRUE(t.access(widest).walk);
    EXPECT_TRUE(t.contains(widest));
    EXPECT_FALSE(t.contains(too_wide));
    const char *msg = "dtlb L1/STLB: address 8000000000000000: page "
                      "80000000000000 is wider than a way's 55-bit key";
    EXPECT_DEATH(t.access(too_wide), msg);
    EXPECT_DEATH(t.install(too_wide), msg);
}

// ---- Geometry guards ------------------------------------------------------

TEST(CacheConfigDeathTest, RejectsZeroWays)
{
    EXPECT_DEATH(Cache(CacheParams{"l2", 1 << 20, 0, 64, 5.0}),
                 "cache l2: 0 ways");
}

TEST(CacheConfigDeathTest, RejectsZeroLineBytes)
{
    EXPECT_DEATH(Cache(CacheParams{"l2", 1 << 20, 16, 0, 5.0}),
                 "cache l2: lineBytes");
}

TEST(CacheConfigDeathTest, RejectsMoreWaysThanRecencyHolds)
{
    // 300 ways x 64 B = 19200 B: one set, so only the way count is
    // wrong.
    EXPECT_DEATH(Cache(CacheParams{"llc", 300 * 64, 300, 64, 16.0}),
                 "cache llc: 300 ways");
}

TEST(TlbConfigDeathTest, RejectsZeroL1Ways)
{
    TlbParams p;
    p.l1Ways = 0;
    EXPECT_DEATH(Tlb{p}, "tlb L1: 0 ways");
}

TEST(TlbConfigDeathTest, RejectsZeroStlbWays)
{
    TlbParams p;
    p.stlbWays = 0;
    EXPECT_DEATH(Tlb{p}, "tlb STLB: 0 ways");
}

TEST(TlbConfigDeathTest, RejectsZeroPageBytes)
{
    TlbParams p;
    p.pageBytes = 0;
    EXPECT_DEATH(Tlb{p}, "tlb: pageBytes");
}

TEST(TlbConfigDeathTest, RejectsMoreWaysThanRecencyHolds)
{
    TlbParams p;
    p.stlbEntries = 512;
    p.stlbWays = 512;
    EXPECT_DEATH(Tlb{p}, "tlb STLB: 512 ways");
}

// ---- Hierarchy ---------------------------------------------------------

TEST(Hierarchy, LevelsFillOnMiss)
{
    Hierarchy h;
    auto r = h.access(0, false);
    EXPECT_TRUE(r.llcMiss);
    r = h.access(0, false);
    EXPECT_EQ(r.hitLevel, 1u);
}

TEST(Hierarchy, L2CatchesL1Victims)
{
    HierarchyParams p;
    p.l1 = CacheParams{"l1", 1024, 2, 64, 1.0};
    Hierarchy h(p);
    // Overflow L1 (16 lines), stay within L2.
    for (Addr a = 0; a < 64 * 64; a += 64)
        h.access(a, false);
    auto r = h.access(0, false);
    EXPECT_GE(r.hitLevel, 2u);
    EXPECT_LE(r.hitLevel, 3u);
}

TEST(Hierarchy, DirtyLlcVictimHeadsToMemory)
{
    HierarchyParams p;
    p.l1 = CacheParams{"l1", 512, 2, 64, 1.0};
    p.l2 = CacheParams{"l2", 1024, 2, 64, 2.0};
    p.l3 = CacheParams{"llc", 2048, 2, 64, 4.0};
    Hierarchy h(p);
    h.access(0, true);
    bool wb_seen = false;
    for (Addr a = 64; a < 64 * 512 && !wb_seen; a += 64)
        wb_seen = h.access(a, false).l3Writeback;
    EXPECT_TRUE(wb_seen);
}

// ---- CPU core -----------------------------------------------------------

namespace
{

cpu::CoreStats
runOn(MemorySystem &mem, std::vector<trace::TraceInst> insts,
      std::uint64_t max_insts = 1u << 30)
{
    cache::Hierarchy caches;
    cpu::CpuCore core(mem, caches);
    trace::VectorTraceSource src(std::move(insts));
    return core.run(src, max_insts);
}

} // namespace

TEST(CpuCore, NonMemRunsAtWidth)
{
    VansFixture f;
    std::vector<trace::TraceInst> insts;
    trace::TraceInst nm;
    nm.type = trace::InstType::NonMem;
    nm.count = 4000;
    insts.push_back(nm);
    auto st = runOn(f.sys, insts);
    EXPECT_EQ(st.instructions, 4000u);
    EXPECT_NEAR(st.ipc, 4.0, 0.2);
}

TEST(CpuCore, DependentLoadsSerialize)
{
    VansFixture f;
    // 64 dependent loads over distinct pages: each pays the memory
    // round trip.
    std::vector<trace::TraceInst> chase;
    for (int i = 0; i < 64; ++i) {
        trace::TraceInst ld;
        ld.type = trace::InstType::Load;
        ld.addr = static_cast<Addr>(i) * (1 << 20);
        ld.dependsOnPrev = true;
        chase.push_back(ld);
    }
    auto st = runOn(f.sys, chase);
    double ns_per_load = ticksToNs(st.elapsed) / 64.0;
    EXPECT_GT(ns_per_load, 300); // Media-path round trips + walks.
}

TEST(CpuCore, IndependentLoadsOverlap)
{
    // Loads spread over a handful of pages: after the first fills,
    // accesses are AIT/RMW-resident, so the dependent chain pays
    // round trips while independent loads pipeline. (Cold misses
    // over huge footprints are fill-bandwidth-bound for both.)
    auto build = [](bool dependent) {
        std::vector<trace::TraceInst> v;
        for (int rep = 0; rep < 2; ++rep) {
            for (int i = 0; i < 64; ++i) {
                trace::TraceInst ld;
                ld.type = trace::InstType::Load;
                // Permuted order so the CPU caches do not swallow
                // repeats while the AIT working set stays small.
                ld.addr = static_cast<Addr>((i * 29) % 64) * 256 +
                          (rep ? 64 : 0);
                ld.dependsOnPrev = dependent;
                v.push_back(ld);
            }
        }
        return v;
    };
    VansFixture f1, f2;
    auto dep = runOn(f1.sys, build(true));
    auto indep = runOn(f2.sys, build(false));
    EXPECT_LT(indep.elapsed, dep.elapsed / 2);
}

TEST(CpuCore, CachedLoadsNeverTouchMemory)
{
    VansFixture f;
    std::vector<trace::TraceInst> v;
    for (int i = 0; i < 100; ++i) {
        trace::TraceInst ld;
        ld.type = trace::InstType::Load;
        ld.addr = 0;
        v.push_back(ld);
    }
    auto st = runOn(f.sys, v);
    // One cold miss plus its page-table read; the other 99 hit L1.
    EXPECT_LE(st.llcMpki, 1000.0 * 2 / 100 + 1);
    EXPECT_LE(f.sys.imc().stats().scalarValue("reads"), 2u);
}

TEST(CpuCore, FencesDrainWrites)
{
    VansFixture f;
    std::vector<trace::TraceInst> v;
    for (int i = 0; i < 8; ++i) {
        trace::TraceInst st;
        st.type = trace::InstType::StoreNT;
        st.addr = static_cast<Addr>(i) * 64;
        v.push_back(st);
    }
    trace::TraceInst fence;
    fence.type = trace::InstType::Fence;
    v.push_back(fence);
    runOn(f.sys, v);
    EXPECT_TRUE(f.sys.dimm(0).writeQuiescent());
}

TEST(CpuCore, ClwbWritesBackDirtyLine)
{
    VansFixture f;
    std::vector<trace::TraceInst> v;
    trace::TraceInst s;
    s.type = trace::InstType::Store;
    s.addr = 128;
    v.push_back(s);
    trace::TraceInst c;
    c.type = trace::InstType::Clwb;
    c.addr = 128;
    v.push_back(c);
    trace::TraceInst fence;
    fence.type = trace::InstType::Fence;
    v.push_back(fence);
    runOn(f.sys, v);
    EXPECT_GE(f.sys.imc().stats().scalarValue("writes"), 1u);
}

// ---- SPEC-like generator -------------------------------------------------

TEST(SpecSynth, TableHasThirteenWorkloads)
{
    EXPECT_EQ(workloads::specTable4().size(), 13u);
    const auto &mcf = workloads::specWorkload("mcf", "2006");
    EXPECT_NEAR(mcf.llcMpki, 27.1, 0.01);
    EXPECT_EQ(mcf.footprintBytes, 9100ull << 20);
}

TEST(SpecSynth, GeneratedMpkiTracksTarget)
{
    // Run two workloads with very different targets through the
    // cache hierarchy and compare measured LLC MPKI.
    auto measure = [](const workloads::SpecWorkload &w) {
        baselines::DramSystemParams dp =
            baselines::DramMainMemory::ddr4Params();
        EventQueue eq;
        baselines::DramMainMemory mem(eq, dp);
        auto insts = workloads::generateSpecTrace(w, 300000);
        cache::Hierarchy caches;
        cpu::CpuCore core(mem, caches);
        trace::VectorTraceSource src(std::move(insts));
        return core.run(src, 300000).llcMpki;
    };
    double mcf = measure(workloads::specWorkload("mcf", "2006"));
    double sjeng = measure(workloads::specWorkload("sjeng", "2006"));
    EXPECT_GT(mcf, sjeng * 2);
    EXPECT_NEAR(mcf, 27.1, 16.0);
    EXPECT_NEAR(sjeng, 2.7, 3.0);
}

TEST(SpecSynth, DeterministicForSeed)
{
    const auto &w = workloads::specWorkload("lbm", "2006");
    auto a = workloads::generateSpecTrace(w, 10000, 32ull << 20, 5);
    auto b = workloads::generateSpecTrace(w, 10000, 32ull << 20, 5);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].addr, b[i].addr);
        EXPECT_EQ(static_cast<int>(a[i].type),
                  static_cast<int>(b[i].type));
    }
}

// ---- Cloud workloads ------------------------------------------------------

TEST(CloudWorkloads, AllGeneratorsProduceTraces)
{
    workloads::CloudParams p;
    p.operations = 200;
    for (const char *name : {"redis", "ycsb", "tpcc", "fio-write",
                             "hashmap", "linkedlist"}) {
        auto t = workloads::cloudTrace(name, p);
        EXPECT_GT(t.size(), 200u) << name;
    }
}

TEST(CloudWorkloads, YcsbConcentratesWrites)
{
    workloads::CloudParams p;
    p.operations = 8000;
    auto t = workloads::ycsbTrace(p);
    std::unordered_map<Addr, unsigned> writes;
    std::uint64_t total = 0;
    for (const auto &i : t) {
        if (i.type == trace::InstType::Store) {
            ++writes[alignDown(i.addr, 64)];
            ++total;
        }
    }
    // Top-10 lines take a disproportionate share (paper Fig 12b).
    std::vector<unsigned> counts;
    for (auto &kv : writes)
        counts.push_back(kv.second);
    std::sort(counts.rbegin(), counts.rend());
    std::uint64_t top10 = 0;
    for (std::size_t i = 0; i < 10 && i < counts.size(); ++i)
        top10 += counts[i];
    EXPECT_GT(static_cast<double>(top10) /
                  static_cast<double>(total),
              0.10);
}

TEST(CloudWorkloads, RedisIsReadDominated)
{
    workloads::CloudParams p;
    p.operations = 2000;
    auto t = workloads::redisTrace(p);
    std::uint64_t loads = 0, stores = 0;
    for (const auto &i : t) {
        loads += i.type == trace::InstType::Load;
        stores += i.type == trace::InstType::Store;
    }
    EXPECT_GT(loads, stores * 4);
}

TEST(CloudWorkloads, HintsEmitMkpt)
{
    workloads::CloudParams p;
    p.operations = 100;
    p.preTranslationHints = true;
    auto t = workloads::linkedListTrace(p);
    bool has_mkpt = false;
    for (const auto &i : t)
        has_mkpt = has_mkpt || i.type == trace::InstType::Mkpt;
    EXPECT_TRUE(has_mkpt);

    p.preTranslationHints = false;
    auto t2 = workloads::linkedListTrace(p);
    for (const auto &i : t2)
        EXPECT_NE(static_cast<int>(i.type),
                  static_cast<int>(trace::InstType::Mkpt));
}

// ---- Trace files -----------------------------------------------------------

TEST(TraceFile, RoundTrip)
{
    std::vector<trace::TraceInst> v;
    trace::TraceInst nm;
    nm.type = trace::InstType::NonMem;
    nm.count = 12;
    v.push_back(nm);
    trace::TraceInst ld;
    ld.type = trace::InstType::Load;
    ld.addr = 0xdeadbe40;
    ld.dependsOnPrev = true;
    v.push_back(ld);
    trace::TraceInst st;
    st.type = trace::InstType::StoreNT;
    st.addr = 0x1000;
    v.push_back(st);
    trace::TraceInst f;
    f.type = trace::InstType::Fence;
    v.push_back(f);

    std::string path = "/tmp/vans_trace_test.txt";
    trace::writeTraceFile(path, v);
    auto r = trace::readTraceFile(path);
    ASSERT_EQ(r.size(), v.size());
    EXPECT_EQ(r[0].count, 12u);
    EXPECT_EQ(r[1].addr, 0xdeadbe40u);
    EXPECT_TRUE(r[1].dependsOnPrev);
    EXPECT_EQ(static_cast<int>(r[2].type),
              static_cast<int>(trace::InstType::StoreNT));
    EXPECT_EQ(static_cast<int>(r[3].type),
              static_cast<int>(trace::InstType::Fence));
}
