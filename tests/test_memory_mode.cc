/**
 * @file
 * Memory-mode (2LM) tests: the per-channel direct-mapped DRAM cache
 * in front of the NVM DIMM must account hits, misses and dirty
 * evictions exactly like a reference direct-mapped model; serve hits
 * at DRAM latency; keep persist-kind stores flowing through to the
 * DIMM; and fork/restore bit-identically. The six-channel Memory-mode
 * socket is covered by MemoryModeSharded in test_socket.cc.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/metrics.hh"
#include "common/snapshot.hh"
#include "lens/driver.hh"
#include "nvram/dram_cache.hh"
#include "nvram/vans_system.hh"
#include "tests/test_util.hh"

using namespace vans;
using vans::test::smallConfig;
using vans::test::VansFixture;

namespace
{

/** smallConfig switched to Memory mode with a tiny (64-set) cache so
 *  direct-mapped conflicts are cheap to provoke. */
nvram::NvramConfig
memoryConfig()
{
    nvram::NvramConfig cfg = smallConfig();
    cfg.mode = nvram::SystemMode::Memory;
    cfg.dcacheCapacity = 4096; // 64 sets.
    return cfg;
}

/** Synchronous plain (write-back kind) store: Driver::write issues
 *  ntstore, which writes through in Memory mode -- the write-back
 *  allocate path needs MemOp::Write. */
void
plainWriteInto(nvram::VansSystem &sys, Addr addr)
{
    RequestHandle h =
        sys.makeRequest(addr, MemOp::Write, cacheLineSize);
    bool done = false;
    sys.request(h).onComplete = [&done](Request &) { done = true; };
    sys.issue(h);
    while (!done)
        sys.eventQueue().step();
    sys.pool().release(h);
}

void
plainWrite(VansFixture &f, Addr addr)
{
    plainWriteInto(f.sys, addr);
}

/** Warm phase shared by the fork-fidelity pair. */
void
warmPhase(nvram::VansSystem &sys, lens::Driver &drv)
{
    for (unsigned i = 0; i < 16; ++i)
        plainWriteInto(sys, static_cast<Addr>(i) * 64);
    for (unsigned i = 0; i < 32; ++i)
        drv.read(static_cast<Addr>(i) * 64);
    drv.drain();
}

/** Continuation run after the fork point: conflict misses over the
 *  warmed sets plus fresh dirty traffic. */
void
pointPhase(nvram::VansSystem &sys, lens::Driver &drv)
{
    for (unsigned i = 0; i < 16; ++i)
        drv.read(static_cast<Addr>(i) * 64 + 4096);
    for (unsigned i = 0; i < 8; ++i)
        plainWriteInto(sys, static_cast<Addr>(i) * 64 + 8192);
    drv.write(12288);
    drv.clwb(12352);
    drv.fence();
    drv.drain();
}

std::string
metricsJson(nvram::VansSystem &sys)
{
    MetricsRegistry reg;
    sys.metricsInto(reg);
    return reg.toJson();
}

/**
 * Drop the event-kernel telemetry group from a metrics export: its
 * counters (slab growth, timer re-arms, peak pending) describe the
 * physical execution, not the model, and a restored world
 * legitimately re-executes them differently. Every model group must
 * still byte-compare.
 */
std::string
stripKernelGroup(const std::string &json)
{
    std::size_t name = json.find("\"name\": \"vans.kernel\"");
    if (name == std::string::npos)
        return json;
    std::size_t start = json.rfind("    {", name);
    std::size_t end = json.find("    },\n", name);
    if (start == std::string::npos || end == std::string::npos)
        return json;
    std::string out = json;
    out.erase(start, end + 7 - start);
    return out;
}

} // namespace

TEST(MemoryModeConfig, ModeKeyParsesAndValidates)
{
    setQuiet(true);
    nvram::NvramConfig cfg = nvram::NvramConfig::fromString(
        "[nvram]\n"
        "mode = memory\n"
        "dcache_capacity = 1M\n");
    EXPECT_TRUE(cfg.memoryMode());
    EXPECT_EQ(cfg.dcacheCapacity, 1ull << 20);

    EXPECT_FALSE(
        nvram::NvramConfig::fromString("[nvram]\n").memoryMode());
}

TEST(MemoryModeConfig, MemoryModeDisablesPersistSupport)
{
    setQuiet(true);
    VansFixture mem(memoryConfig());
    EXPECT_FALSE(mem.sys.persistSupported());
    VansFixture app(smallConfig());
    EXPECT_TRUE(app.sys.persistSupported());
}

TEST(MemoryMode, DirectedAccountingMatchesReferenceModel)
{
    setQuiet(true);
    VansFixture f(memoryConfig());
    nvram::DramCache *dc = f.sys.imc().dramCache(0);
    ASSERT_NE(dc, nullptr);
    const std::uint64_t sets = dc->sets();
    ASSERT_EQ(sets, 64u);

    // Reference direct-mapped model, advanced in lockstep with the
    // simulated ops (each op runs to quiescence, so order is exact).
    std::vector<Addr> refTag(sets, ~0ull);
    std::vector<bool> refValid(sets, false);
    std::vector<bool> refDirty(sets, false);
    std::uint64_t refHits = 0, refMisses = 0, refDirtyEvicts = 0;
    std::uint64_t refWbHits = 0, refWbMisses = 0;

    auto setOf = [&](Addr line) { return (line / 64) % sets; };
    auto refInstall = [&](Addr line, bool dirty) {
        std::uint64_t s = setOf(line);
        if (refValid[s] && refDirty[s] && refTag[s] != line)
            ++refDirtyEvicts;
        refTag[s] = line;
        refValid[s] = true;
        refDirty[s] = dirty;
    };
    auto refRead = [&](Addr line) {
        std::uint64_t s = setOf(line);
        if (refValid[s] && refTag[s] == line) {
            ++refHits;
        } else {
            ++refMisses;
            refInstall(line, false);
        }
    };
    auto refWrite = [&](Addr line) {
        std::uint64_t s = setOf(line);
        if (refValid[s] && refTag[s] == line) {
            ++refWbHits;
            refDirty[s] = true;
        } else {
            ++refWbMisses;
            refInstall(line, true);
        }
    };

    // Deterministic directed mix: writes dirty lines, reads provoke
    // conflict fills over the 64-set cache (stride 4096 aliases).
    for (unsigned i = 0; i < 24; ++i) {
        Addr a = static_cast<Addr>(i) * 64;
        plainWrite(f, a);
        f.drv.drain(); // WPQ must reach the cache before the model.
        refWrite(a);
    }
    for (unsigned i = 0; i < 24; ++i) {
        Addr a = static_cast<Addr>(i) * 64;
        f.drv.read(a); // Hits: the writes above installed them.
        refRead(a);
    }
    for (unsigned i = 0; i < 24; ++i) {
        // Same sets, different tags: misses that evict dirty lines.
        Addr a = static_cast<Addr>(i) * 64 + 4096;
        f.drv.read(a);
        refRead(a);
    }
    for (unsigned i = 0; i < 8; ++i) {
        // Re-dirty some sets, then alias over them again.
        Addr a = static_cast<Addr>(i) * 64 + 8192;
        plainWrite(f, a);
        f.drv.drain();
        refWrite(a);
        Addr b = static_cast<Addr>(i) * 64;
        f.drv.read(b);
        refRead(b);
    }
    f.drv.drain();

    const StatGroup &st = dc->stats();
    EXPECT_EQ(st.scalarValue("hits"), refHits);
    EXPECT_EQ(st.scalarValue("misses"), refMisses);
    EXPECT_EQ(st.scalarValue("dirty_evicts"), refDirtyEvicts);
    EXPECT_EQ(st.scalarValue("wb_write_hits"), refWbHits);
    EXPECT_EQ(st.scalarValue("wb_write_misses"), refWbMisses);
    // Every NVM line write is a dirty evict (no write-throughs were
    // issued in this directed mix).
    EXPECT_EQ(st.scalarValue("nvm_line_writes"), refDirtyEvicts);
    EXPECT_EQ(f.sys.dcacheScalarSum("hits"), refHits);

    // Tag probes agree with the reference model.
    for (std::uint64_t s = 0; s < sets; ++s) {
        if (!refValid[s])
            continue;
        EXPECT_TRUE(dc->contains(refTag[s])) << "set " << s;
        EXPECT_EQ(dc->isDirty(refTag[s]), refDirty[s]) << "set " << s;
    }
}

TEST(MemoryMode, HitsCompleteFasterThanMisses)
{
    setQuiet(true);
    VansFixture f(memoryConfig());
    Tick miss = f.drv.read(0); // Cold: NVM fetch + fill.
    Tick hit = f.drv.read(0);  // Resident: one DDR4 access.
    EXPECT_LT(hit, miss);

    // A Memory-mode hit also beats the App Direct read path (the
    // whole point of the near-memory cache).
    VansFixture app(smallConfig());
    app.drv.read(0);
    Tick direct = app.drv.read(0);
    EXPECT_LT(hit, direct);
}

TEST(MemoryMode, PersistOpsWriteThroughToTheDimm)
{
    setQuiet(true);
    VansFixture f(memoryConfig());
    nvram::DramCache *dc = f.sys.imc().dramCache(0);
    ASSERT_NE(dc, nullptr);

    // ntstore + clwb keep their durability path: each forwards one
    // line to the NVM DIMM even though the cache is in front.
    f.drv.write(0); // Driver::write is ntstore.
    f.drv.write(64);
    f.drv.clwb(128);
    f.drv.fence(); // Must drain the write-throughs to media.
    f.drv.drain();

    const StatGroup &st = dc->stats();
    EXPECT_EQ(st.scalarValue("writethroughs"), 3u);
    EXPECT_EQ(st.scalarValue("invalidates"), 0u);
    EXPECT_GE(f.sys.totalMediaWrites(), 1u);

    // clflushopt additionally drops the cached copy.
    f.drv.read(4096); // Install a clean resident line.
    ASSERT_TRUE(dc->contains(4096));
    f.drv.clflushopt(4096);
    f.drv.drain();
    EXPECT_EQ(st.scalarValue("writethroughs"), 4u);
    EXPECT_EQ(st.scalarValue("invalidates"), 1u);
    EXPECT_FALSE(dc->contains(4096));

    // A plain store does NOT write through: it goes dirty in cache.
    std::uint64_t nvmBefore = st.scalarValue("nvm_line_writes");
    plainWrite(f, 8192);
    f.drv.drain();
    EXPECT_EQ(st.scalarValue("nvm_line_writes"), nvmBefore);
    EXPECT_TRUE(dc->isDirty(8192));
}

TEST(MemoryMode, SnapshotRoundTripPreservesTagsAndDirtyBits)
{
    setQuiet(true);
    nvram::NvramConfig cfg = memoryConfig();
    EventQueue eq_a;
    nvram::VansSystem a(eq_a, cfg, "vans");
    lens::Driver drv_a(a);
    setQuiet(true);

    for (unsigned i = 0; i < 8; ++i)
        plainWriteInto(a, static_cast<Addr>(i) * 64);
    for (unsigned i = 8; i < 16; ++i)
        drv_a.read(static_cast<Addr>(i) * 64);
    drv_a.drain();

    auto snap = snapshot::WorldSnapshot::capture(eq_a, a);
    EventQueue eq_b;
    nvram::VansSystem b(eq_b, cfg, "vans");
    snap.restoreInto(eq_b, b);

    nvram::DramCache *da = a.imc().dramCache(0);
    nvram::DramCache *db = b.imc().dramCache(0);
    ASSERT_NE(da, nullptr);
    ASSERT_NE(db, nullptr);
    for (unsigned i = 0; i < 16; ++i) {
        Addr line = static_cast<Addr>(i) * 64;
        EXPECT_EQ(db->contains(line), da->contains(line)) << line;
        EXPECT_EQ(db->isDirty(line), da->isDirty(line)) << line;
        EXPECT_EQ(da->isDirty(line), i < 8) << line;
    }
    EXPECT_TRUE(db->stats().identicalTo(da->stats()));
}

TEST(MemoryMode, ForkedWorldContinuesBitIdentically)
{
    setQuiet(true);
    nvram::NvramConfig cfg = memoryConfig();

    // Reference: one cold world runs warm + point back to back.
    EventQueue ref_eq;
    nvram::VansSystem ref(ref_eq, cfg, "vans");
    lens::Driver ref_drv(ref);
    warmPhase(ref, ref_drv);
    pointPhase(ref, ref_drv);

    // Fork: a second cold world is captured warm, restored into a
    // fresh world, and only the fresh world runs the point phase.
    EventQueue proto_eq;
    nvram::VansSystem proto(proto_eq, cfg, "vans");
    lens::Driver proto_drv(proto);
    warmPhase(proto, proto_drv);
    auto snap = snapshot::WorldSnapshot::capture(proto_eq, proto);

    EventQueue fork_eq;
    nvram::VansSystem fork(fork_eq, cfg, "vans");
    lens::Driver fork_drv(fork);
    snap.restoreInto(fork_eq, fork);
    pointPhase(fork, fork_drv);

    EXPECT_EQ(fork_eq.curTick(), ref_eq.curTick());
    std::string fj = stripKernelGroup(metricsJson(fork));
    std::string rj = stripKernelGroup(metricsJson(ref));
    EXPECT_NE(fj, metricsJson(fork)) << "strip must find the group";
    EXPECT_EQ(fj, rj);
}
