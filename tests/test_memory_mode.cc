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

#include <memory>
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

/** memoryConfig()'s 64-set caches on six interleaved channels of
 *  @p dimm_bytes DIMMs. */
nvram::NvramConfig
memorySocket(std::uint64_t dimm_bytes)
{
    nvram::NvramConfig cfg = memoryConfig();
    cfg.numDimms = 6;
    cfg.interleaved = true;
    cfg.dimmCapacity = dimm_bytes;
    return cfg;
}

/** The DRAM cache of the channel @p line maps to. */
nvram::DramCache &
cacheOf(nvram::VansSystem &sys, Addr line)
{
    return *sys.imc().dramCache(sys.imc().dimmOf(line));
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

TEST(MemoryMode, ShippedConfigKeepsOneBytePerSet)
{
    setQuiet(true);
    VansFixture f(nvram::NvramConfig::fromFile(
        VANS_SOURCE_DIR "/configs/optane_memory_mode.cfg"));
    nvram::DramCache *dc = f.sys.imc().dramCache(0);
    ASSERT_NE(dc, nullptr);
    // 4 GB of NVM behind a 64 MB cache: 64 tag indices, 6 bits, plus
    // the valid and dirty bits.
    EXPECT_EQ(dc->sets(), 1u << 20);
    EXPECT_EQ(dc->bitsPerSet(), 8u);
}

// The tag store's field width follows the socket's capacity. One
// seeded stream of reads, plain stores, clwb and clflushopt, each run
// to quiescence, must leave the same tags, dirty bits and dcache
// stats at 19, 25 and 33 bits per set: every address stays below the
// smallest socket, so only the width differs.
TEST(MemoryMode, TagStoreAnswersDoNotDependOnFieldWidth)
{
    setQuiet(true);
    const std::uint64_t dimm_bytes[] = {64ull << 20, 4ull << 30,
                                        1ull << 40};
    const unsigned widths[] = {19, 25, 33};
    // Four tags 96 MB apart over 8 sets of each channel: 192 lines
    // compete for 48 slots.
    std::vector<Addr> lines;
    for (Addr tag = 0; tag < 4; ++tag)
        for (Addr ch = 0; ch < 6; ++ch)
            for (Addr set = 0; set < 8; ++set)
                lines.push_back(tag * (96ull << 20) + ch * 4096 +
                                set * 64);

    std::vector<std::unique_ptr<VansFixture>> worlds;
    std::vector<std::vector<bool>> answers;
    for (std::size_t w = 0; w < std::size(dimm_bytes); ++w) {
        worlds.push_back(
            std::make_unique<VansFixture>(memorySocket(dimm_bytes[w])));
        VansFixture &f = *worlds.back();
        for (unsigned ch = 0; ch < 6; ++ch) {
            EXPECT_EQ(f.sys.imc().dramCache(ch)->bitsPerSet(),
                      widths[w]);
        }
        Rng rng(5);
        std::vector<bool> probes;
        for (int n = 0; n < 300; ++n) {
            Addr a = lines[rng.below(lines.size())];
            switch (rng.below(4)) {
              case 0:
                f.drv.read(a);
                break;
              case 1:
                plainWriteInto(f.sys, a);
                break;
              case 2:
                f.drv.clwb(a);
                break;
              default:
                f.drv.clflushopt(a);
                break;
            }
            f.drv.drain();
            for (Addr l : lines) {
                probes.push_back(cacheOf(f.sys, l).contains(l));
                probes.push_back(cacheOf(f.sys, l).isDirty(l));
            }
        }
        answers.push_back(std::move(probes));
    }

    // The stream reached every path the fields serve.
    VansFixture &narrow = *worlds.front();
    EXPECT_GT(narrow.sys.dcacheScalarSum("hits"), 0u);
    EXPECT_GT(narrow.sys.dcacheScalarSum("wb_write_hits"), 0u);
    EXPECT_GT(narrow.sys.dcacheScalarSum("dirty_evicts"), 0u);
    EXPECT_GT(narrow.sys.dcacheScalarSum("invalidates"), 0u);
    for (std::size_t w = 1; w < worlds.size(); ++w) {
        EXPECT_TRUE(answers[w] == answers[0]) << widths[w] << " bits";
        for (unsigned ch = 0; ch < 6; ++ch) {
            EXPECT_TRUE(
                worlds[w]->sys.imc().dramCache(ch)->stats().identicalTo(
                    narrow.sys.imc().dramCache(ch)->stats()))
                << widths[w] << " bits, channel " << ch;
        }
    }
}

// The socket's last line has the highest tag index, so it fills all
// 33 bits of its field; at 33 bits half of the 64 fields straddle two
// words. Beside neighbours whose tags spread over the whole socket,
// it must survive a capture -> restore -> capture round trip byte for
// byte, and leave through a dirty evict.
TEST(MemoryMode, SocketLastLineRoundTripsAtAStraddlingWidth)
{
    setQuiet(true);
    const nvram::NvramConfig cfg = memorySocket(1ull << 40);
    VansFixture a(cfg);
    const Addr last = a.sys.capacity() - cacheLineSize;
    nvram::DramCache &dca = cacheOf(a.sys, last);
    ASSERT_EQ(dca.bitsPerSet(), 33u);
    ASSERT_EQ(last / 64 % 64, 63u);
    // Sets 0..62 of the last line's channel: tags 96 GB apart, dirty
    // in even sets, clean in odd ones.
    const Addr stripe = last / 4096 % 6 * 4096;
    std::vector<Addr> lines;
    for (Addr set = 0; set < 63; ++set) {
        Addr l = set * (96ull << 30) + stripe + set * 64;
        ASSERT_EQ(&cacheOf(a.sys, l), &dca);
        lines.push_back(l);
        if (set % 2 == 0)
            plainWriteInto(a.sys, l);
        else
            a.drv.read(l);
    }
    plainWriteInto(a.sys, last);
    lines.push_back(last);
    a.drv.drain();
    for (std::size_t i = 0; i < lines.size(); ++i) {
        EXPECT_TRUE(dca.contains(lines[i])) << i;
        EXPECT_EQ(dca.isDirty(lines[i]), i % 2 == 0 || i == 63) << i;
    }
    // One interleave stripe further is past the socket: no tag index.
    EXPECT_FALSE(dca.contains(last + 6 * 4096));

    auto snap = snapshot::WorldSnapshot::capture(a.eq, a.sys);
    VansFixture b(cfg);
    snap.restoreInto(b.eq, b.sys);
    EXPECT_TRUE(test::systemStream(b.sys) == test::systemStream(a.sys));
    nvram::DramCache &dcb = cacheOf(b.sys, last);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        EXPECT_TRUE(dcb.contains(lines[i])) << i;
        EXPECT_EQ(dcb.isDirty(lines[i]), dca.isDirty(lines[i])) << i;
    }

    // A conflicting read in set 63 writes the last line back.
    std::uint64_t evicts = dcb.stats().scalarValue("dirty_evicts");
    Addr rival = last - 6 * 4096;
    b.drv.read(rival);
    b.drv.drain();
    EXPECT_EQ(dcb.stats().scalarValue("dirty_evicts"), evicts + 1);
    EXPECT_FALSE(dcb.contains(last));
    EXPECT_TRUE(dcb.contains(rival));
    EXPECT_TRUE(dcb.contains(lines[62]));
}

// A stream captured on a larger socket names a line whose tag index
// does not fit the restoring cache's field: the restore fails, naming
// the line, instead of storing a truncated tag.
TEST(MemoryModeDeathTest, RestoreRejectsALineThatDoesNotFitTheField)
{
    setQuiet(true);
    VansFixture big(memorySocket(1ull << 40));
    const Addr last = big.sys.capacity() - cacheLineSize;
    plainWriteInto(big.sys, last);
    big.drv.drain();
    auto snap = snapshot::WorldSnapshot::capture(big.eq, big.sys);
    VansFixture small(memorySocket(64ull << 20));
    EXPECT_DEATH(snap.restoreInto(small.eq, small.sys),
                 "snapshot line 5ffffffffc0 does not map to set 63 of "
                 "a 19-bit tag store");
}
