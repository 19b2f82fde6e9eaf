/**
 * @file
 * Persistence semantics + crash-injection tests.
 *
 * The contract under test: the WPQ is the ADR durability boundary.
 * A power cut at an *arbitrary* tick may lose everything still in
 * CPU caches, crossing the core-to-iMC hop, or stalled outside a
 * full WPQ -- and must lose nothing the iMC accepted. The crash
 * matrix sweeps the cut tick across a logged-writes run and checks
 * prefix durability at every single cut; the fuzz test drives random
 * PM programs against a reference durable-set model; the cost pins
 * keep the Empirical Guide numbers (clwb extra hop, partial
 * write-combining drain, the 256B ntstore-vs-clwb crossover) from
 * drifting.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "baselines/dram_system.hh"
#include "common/crash.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "lens/driver.hh"
#include "nvram/nvm_checker.hh"
#include "nvram/vans_system.hh"
#include "tests/test_util.hh"

using namespace vans;
using persist::CrashHarness;
using persist::MediaImage;
using persist::PersistenceChecker;
using persist::PmOp;

namespace
{

/** Crash-test config: small world, verification on (the harness
 *  feeds the Verifier's PersistenceChecker). */
nvram::NvramConfig
crashConfig(unsigned dimms = 1)
{
    nvram::NvramConfig cfg = test::smallConfig();
    cfg.numDimms = dimms;
    cfg.interleaved = dimms > 1;
    cfg.verify = true;
    return cfg;
}

SystemFactory
vansFactory(const nvram::NvramConfig &cfg)
{
    return [cfg](EventQueue &eq) {
        setQuiet(true);
        return std::make_unique<nvram::VansSystem>(eq, cfg);
    };
}

/** Round-trip a report's image through a restarted world: the
 *  recovered world's durable state must be exactly the image. */
void
expectRestartPreservesImage(const SystemFactory &factory,
                            const MediaImage &image)
{
    EventQueue eq;
    std::unique_ptr<MemorySystem> sys =
        CrashHarness::restart(factory, eq, image);
    MediaImage again;
    sys->powerFail(again); // Immediate re-cut: nothing issued yet.
    EXPECT_TRUE(again == image)
        << "restart changed the durable set: " << again.lineCount()
        << " lines vs " << image.lineCount();
}

} // namespace

// ---- MediaImage ------------------------------------------------------

TEST(MediaImage, MaxMergeAndLookup)
{
    MediaImage img;
    EXPECT_EQ(img.lineCount(), 0u);
    EXPECT_FALSE(img.contains(0x40));
    EXPECT_EQ(img.versionOf(0x40), 0u);

    img.set(0x40, 7);
    img.set(0x80, 3);
    img.set(0x40, 5); // Older version: max-merge keeps 7.
    EXPECT_EQ(img.lineCount(), 2u);
    EXPECT_EQ(img.versionOf(0x40), 7u);
    EXPECT_EQ(img.versionOf(0x80), 3u);

    MediaImage other;
    other.set(0x80, 3);
    other.set(0x40, 7);
    EXPECT_TRUE(img == other);
    other.set(0xc0, 1);
    EXPECT_FALSE(img == other);
}

// ---- PersistenceChecker ----------------------------------------------

TEST(PersistenceChecker, FlushFenceDisciplineReachesDurable)
{
    verify::Monitor mon(/*fail_fast=*/false);
    PersistenceChecker pc(mon);
    using LS = PersistenceChecker::LineState;

    EXPECT_EQ(pc.state(0x40), LS::Clean);
    pc.onCachedWrite(0x40, 10);
    EXPECT_EQ(pc.state(0x40), LS::Dirty);
    pc.onFlush(0x40, 20);
    EXPECT_EQ(pc.state(0x40), LS::FlushPending);
    pc.onFenceIssued(1, 30);
    pc.onFenceComplete(1, 40);
    EXPECT_EQ(pc.state(0x40), LS::Durable);
    EXPECT_EQ(pc.durableLines(), 1u);

    pc.assumeDurable(0x40, 50);
    EXPECT_EQ(pc.violations(), 0u);
    EXPECT_TRUE(mon.clean());
}

TEST(PersistenceChecker, UnflushedDirtyAssumptionIsFlagged)
{
    verify::Monitor mon(/*fail_fast=*/false);
    PersistenceChecker pc(mon);

    pc.onCachedWrite(0x80, 10);
    pc.assumeDurable(0x80, 20);
    EXPECT_EQ(pc.violations(), 1u);
    EXPECT_EQ(mon.countRule("unflushed-dirty"), 1u);

    // A line never touched carries no assumption to violate.
    pc.assumeDurable(0xc0, 30);
    EXPECT_EQ(pc.violations(), 1u);
}

TEST(PersistenceChecker, UnfencedFlushAssumptionIsFlagged)
{
    verify::Monitor mon(/*fail_fast=*/false);
    PersistenceChecker pc(mon);

    pc.onCachedWrite(0x80, 10);
    pc.onFlush(0x80, 20);
    // Flushed but no fence completed: still not durable.
    pc.assumeDurable(0x80, 30);
    EXPECT_EQ(mon.countRule("unfenced-flush"), 1u);
}

TEST(PersistenceChecker, FenceCoversOnlyPriorFlushes)
{
    verify::Monitor mon(/*fail_fast=*/false);
    PersistenceChecker pc(mon);
    using LS = PersistenceChecker::LineState;

    pc.onCachedWrite(0x40, 1);
    pc.onFlush(0x40, 2);
    pc.onFenceIssued(9, 3);
    // This flush races past the fence: it is not covered by it.
    pc.onCachedWrite(0x80, 4);
    pc.onFlush(0x80, 5);
    pc.onFenceComplete(9, 6);

    EXPECT_EQ(pc.state(0x40), LS::Durable);
    EXPECT_EQ(pc.state(0x80), LS::FlushPending);
}

TEST(PersistenceChecker, RewriteInvalidatesPendingFlush)
{
    verify::Monitor mon(/*fail_fast=*/false);
    PersistenceChecker pc(mon);
    using LS = PersistenceChecker::LineState;

    pc.onCachedWrite(0x40, 1);
    pc.onFlush(0x40, 2);
    // New store before the fence: the in-flight flush covers stale
    // data only; the line is dirty again.
    pc.onCachedWrite(0x40, 3);
    EXPECT_EQ(pc.state(0x40), LS::Dirty);
    pc.onFenceIssued(1, 4);
    pc.onFenceComplete(1, 5);
    EXPECT_EQ(pc.state(0x40), LS::Dirty);
    pc.assumeDurable(0x40, 6);
    EXPECT_EQ(mon.countRule("unflushed-dirty"), 1u);
}

// ---- Cost model pins (Empirical Guide) -------------------------------

TEST(PersistCostModel, ClwbPaysTheExtraHop)
{
    // A clwb writeback leaves the cache hierarchy, not the store
    // buffer: exactly cfg.clwbExtraNs more one-way latency than the
    // NT store, both completing at WPQ acceptance.
    nvram::NvramConfig cfg = test::smallConfig();
    Tick nt, wb, inval;
    {
        test::VansFixture f(cfg);
        nt = f.drv.write(0);
    }
    {
        test::VansFixture f(cfg);
        wb = f.drv.clwb(0);
    }
    {
        test::VansFixture f(cfg);
        inval = f.drv.clflushopt(0);
    }
    EXPECT_EQ(wb - nt, nsToTicks(cfg.clwbExtraNs));
    EXPECT_EQ(inval, wb); // clflushopt prices like clwb at the iMC.
}

TEST(PersistCostModel, SfencePartialWcDrainCharge)
{
    nvram::NvramConfig cfg = test::smallConfig();

    // A full 256B write-combining buffer drains for free: 4 NT
    // stores, all already ADR-accepted, make the sfence immediate.
    {
        test::VansFixture f(cfg);
        for (unsigned i = 0; i < 4; ++i)
            f.drv.write(i * cacheLineSize);
        EXPECT_EQ(f.drv.sfence(), 0u);
        EXPECT_EQ(f.sys.imc().stats().scalarValue("sfences"), 1u);
        EXPECT_EQ(
            f.sys.imc().stats().scalarValue("wc_partial_drains"),
            0u);
    }

    // One 64B NT store cuts the buffer at a quarter fill: the sfence
    // pays the partial-drain charge, served in 20ns poll steps.
    {
        test::VansFixture f(cfg);
        f.drv.write(0);
        EXPECT_EQ(f.drv.sfence(), nsToTicks(cfg.wcPartialDrainNs));
        EXPECT_EQ(
            f.sys.imc().stats().scalarValue("wc_partial_drains"),
            1u);
    }

    // An sfence with no prior NT store has nothing to drain.
    {
        test::VansFixture f(cfg);
        EXPECT_EQ(f.drv.sfence(), 0u);
    }
}

TEST(PersistCostModel, NtStoreVsClwbCrossoverAt256Bytes)
{
    // The Empirical Guide's headline rule: persist small blocks via
    // cached stores + clwb, large blocks via NT stores, crossover at
    // 256B (one write-combining buffer). Below 256B the NT path's
    // partial-drain charge dominates the clwb extra hops; at 256B
    // and above the NT path wins.
    nvram::NvramConfig cfg = test::smallConfig();
    auto ntCost = [&cfg](std::uint32_t bytes) {
        test::VansFixture f(cfg);
        return f.drv.persistBlockNt(0, bytes);
    };
    auto cachedCost = [&cfg](std::uint32_t bytes) {
        test::VansFixture f(cfg);
        return f.drv.persistBlockCached(0, bytes);
    };
    for (std::uint32_t bytes : {64u, 128u, 192u}) {
        EXPECT_LT(cachedCost(bytes), ntCost(bytes))
            << "cached persist must win below the crossover ("
            << bytes << "B)";
    }
    for (std::uint32_t bytes : {256u, 512u, 1024u}) {
        EXPECT_LE(ntCost(bytes), cachedCost(bytes))
            << "NT persist must win at/above the crossover ("
            << bytes << "B)";
    }
}

// ---- Crash matrix ----------------------------------------------------

TEST(CrashMatrix, FullRunIsFullyDurable)
{
    nvram::NvramConfig cfg = crashConfig();
    SystemFactory factory = vansFactory(cfg);
    std::vector<PmOp> prog = CrashHarness::loggedWrites(0, 12);

    // Cut far beyond the end: the program drains untouched.
    CrashHarness::Report rep = CrashHarness::runToCrash(
        factory, prog, static_cast<Tick>(-1) / 2);
    EXPECT_FALSE(rep.cutHappened);
    EXPECT_EQ(rep.writesIssued.size(), 12u);
    EXPECT_EQ(rep.fencedWrites, 12u);
    EXPECT_EQ(rep.fencesCompleted, 12u);
    EXPECT_EQ(rep.image.lineCount(), 12u);
    std::string why;
    EXPECT_TRUE(rep.checkPrefixDurability(why)) << why;
    expectRestartPreservesImage(factory, rep.image);
}

namespace
{

/** Shared body of the matrix sweeps: crash a logged-writes run at
 *  @p cut and check the recovery invariant. */
void
checkCutAt(const SystemFactory &factory,
           const std::vector<PmOp> &prog, Tick cut, bool nt_workload)
{
    CrashHarness::Report rep =
        CrashHarness::runToCrash(factory, prog, cut);
    std::string why;
    ASSERT_TRUE(rep.checkPrefixDurability(why))
        << "cut at tick " << cut << " ("
        << (nt_workload ? "nt" : "clwb") << " workload): " << why;
    expectRestartPreservesImage(factory, rep.image);
}

} // namespace

TEST(CrashMatrix, PrefixDurabilityAtEveryCutTick)
{
    // The tentpole matrix: a logged-writes workload crashed at every
    // tick of a dense sweep window (plus an even coarse sweep over
    // the whole run). After every single cut, the durable image must
    // be exactly a prefix of the issue order -- no lost fenced line,
    // no phantom un-fenced line, no torn line, no hole.
    nvram::NvramConfig cfg = crashConfig();
    SystemFactory factory = vansFactory(cfg);

    for (bool nt : {true, false}) {
        std::vector<PmOp> prog = CrashHarness::loggedWrites(0, 6, nt);
        CrashHarness::Report full = CrashHarness::runToCrash(
            factory, prog, static_cast<Tick>(-1) / 2);
        ASSERT_FALSE(full.cutHappened);
        ASSERT_EQ(full.fencedWrites, 6u);

        // Dense window: every tick around the middle record's
        // store/flush/fence activity.
        Tick mid = full.endTick / 2;
        for (Tick cut = mid; cut < mid + 400; ++cut)
            checkCutAt(factory, prog, cut, nt);

        // Coarse sweep: evenly spaced cuts across the entire run,
        // ends included (cut at 1 = power fails before anything).
        Tick stride = full.endTick / 96 + 1;
        for (Tick cut = 1; cut <= full.endTick + stride;
             cut += stride)
            checkCutAt(factory, prog, cut, nt);
    }
}

TEST(CrashMatrix, EarlyCutLosesEverything)
{
    nvram::NvramConfig cfg = crashConfig();
    SystemFactory factory = vansFactory(cfg);
    std::vector<PmOp> prog = CrashHarness::loggedWrites(0, 4);

    // Power fails before the first store reaches the iMC: the hop
    // takes coreToImcNs, so nothing can be durable yet.
    CrashHarness::Report rep =
        CrashHarness::runToCrash(factory, prog, 1);
    EXPECT_TRUE(rep.cutHappened);
    EXPECT_EQ(rep.image.lineCount(), 0u);
    EXPECT_EQ(rep.fencedWrites, 0u);
    std::string why;
    EXPECT_TRUE(rep.checkPrefixDurability(why)) << why;
}

TEST(CrashMatrix, UnflushedCachedStoresNeverSurvive)
{
    // Cached stores without any flush: no request ever reaches the
    // iMC, so every cut -- and even the full run -- leaves the media
    // empty. This is the bug class the PersistenceChecker flags.
    nvram::NvramConfig cfg = crashConfig();
    SystemFactory factory = vansFactory(cfg);
    std::vector<PmOp> prog;
    for (unsigned i = 0; i < 8; ++i)
        prog.push_back({PmOp::Kind::Store, i * cacheLineSize});
    prog.push_back({PmOp::Kind::Sfence, 0});

    CrashHarness::Report rep = CrashHarness::runToCrash(
        factory, prog, static_cast<Tick>(-1) / 2);
    EXPECT_FALSE(rep.cutHappened);
    EXPECT_EQ(rep.writesIssued.size(), 0u);
    EXPECT_EQ(rep.image.lineCount(), 0u);
    EXPECT_EQ(rep.fencesCompleted, 1u);
}

// ---- Power-failure misuse (death tests) ------------------------------

TEST(CrashDeathTest, PowerFailRequiresTracking)
{
    setQuiet(true);
    test::VansFixture f(crashConfig());
    MediaImage img;
    EXPECT_DEATH(f.sys.powerFail(img), "persist tracking");
}

TEST(CrashDeathTest, PowerFailTwiceIsRefused)
{
    setQuiet(true);
    test::VansFixture f(crashConfig());
    f.sys.enablePersistTracking();
    MediaImage img;
    f.sys.powerFail(img);
    EXPECT_DEATH(f.sys.powerFail(img), "already-failed");
}

TEST(CrashDeathTest, IssueIntoFailedWorldIsRefused)
{
    setQuiet(true);
    test::VansFixture f(crashConfig());
    f.sys.enablePersistTracking();
    MediaImage img;
    f.sys.powerFail(img);
    RequestHandle h = f.sys.makeRequest(0, MemOp::WriteNT);
    EXPECT_DEATH(f.sys.issue(h), "power-failed");
}

TEST(CrashDeathTest, LoadImageIntoUsedWorldIsRefused)
{
    setQuiet(true);
    test::VansFixture f(crashConfig());
    f.drv.write(0); // The world has issued: no longer fresh.
    MediaImage img;
    img.set(0x40, 1);
    EXPECT_DEATH(f.sys.loadDurableImage(img), "already issued");
}

TEST(CrashDeathTest, HarnessRefusesNonPersistSystems)
{
    setQuiet(true);
    // The DRAM baselines expose no ADR boundary; the harness must
    // refuse them instead of reporting a vacuous durable set.
    SystemFactory dram = [](EventQueue &eq) {
        return std::make_unique<baselines::DramMainMemory>(
            eq, baselines::DramMainMemory::ddr4Params(1ull << 30),
            "ddr4");
    };
    std::vector<PmOp> prog = CrashHarness::loggedWrites(0, 1);
    EXPECT_DEATH(CrashHarness::runToCrash(dram, prog, 1000),
                 "persist-capable");
}

// ---- Randomized crash-consistency fuzz -------------------------------

namespace
{

/** Reference model check for arbitrary programs (repeated lines
 *  allowed, so prefix durability does not apply): every sfence-
 *  covered write must survive with at least its version; every
 *  surviving version must be one actually issued for that line. */
void
checkAgainstReferenceModel(const CrashHarness::Report &rep,
                           std::uint64_t seed)
{
    // Versions required durable: per line, the max id among writes
    // covered by a completed sfence.
    std::map<Addr, std::uint64_t> fencedVer;
    std::map<Addr, std::set<std::uint64_t>> issuedVers;
    for (std::size_t i = 0; i < rep.writesIssued.size(); ++i) {
        const auto &[line, id] = rep.writesIssued[i];
        issuedVers[line].insert(id);
        if (i < rep.fencedWrites) {
            std::uint64_t &v = fencedVer[line];
            if (id > v)
                v = id;
        }
    }

    for (const auto &[line, ver] : fencedVer) {
        ASSERT_TRUE(rep.image.contains(line))
            << "seed=" << seed << ": fenced line " << std::hex
            << line << " lost";
        ASSERT_GE(rep.image.versionOf(line), ver)
            << "seed=" << seed << ": fenced line " << std::hex
            << line << " is stale";
    }
    for (const auto &[line, ver] : rep.image.lines()) {
        auto it = issuedVers.find(line);
        ASSERT_TRUE(it != issuedVers.end())
            << "seed=" << seed << ": phantom line " << std::hex
            << line;
        ASSERT_TRUE(it->second.count(ver) != 0)
            << "seed=" << seed << ": line " << std::hex << line
            << " durable with never-issued version " << std::dec
            << ver;
    }
}

} // namespace

TEST(CrashFuzz, RandomProgramsMatchReferenceDurableSet)
{
    // SplitMix64-seeded random PM programs over a 2-channel socket,
    // random cut ticks, checked against the reference durable-set
    // model. VANS_FUZZ_ITERS overrides the iteration count (the
    // sanitizer CI lane runs a reduced sweep).
    unsigned iters = 1000;
    if (const char *env = std::getenv("VANS_FUZZ_ITERS"))
        iters = static_cast<unsigned>(std::atoi(env));

    nvram::NvramConfig cfg = crashConfig(/*dimms=*/2);
    SystemFactory factory = vansFactory(cfg);

    for (unsigned iter = 0; iter < iters; ++iter) {
        std::uint64_t seed = 0xc5a5ull * 0x9e3779b97f4a7c15ull + iter;
        Rng rng(seed);

        // Lines spread over both channels (4KB interleave).
        std::vector<Addr> lines;
        for (unsigned i = 0; i < 6; ++i)
            lines.push_back(static_cast<Addr>(i) * 4096 +
                            (i % 3) * cacheLineSize);

        std::vector<PmOp> prog;
        unsigned ops = 8 + static_cast<unsigned>(rng.below(16));
        for (unsigned i = 0; i < ops; ++i) {
            Addr a = lines[rng.below(lines.size())];
            switch (rng.below(10)) {
              case 0:
              case 1:
              case 2:
                prog.push_back({PmOp::Kind::Store, a});
                break;
              case 3:
              case 4:
              case 5:
                prog.push_back({PmOp::Kind::NtStore, a});
                break;
              case 6:
                prog.push_back({PmOp::Kind::Clwb, a});
                break;
              case 7:
                prog.push_back({PmOp::Kind::Clflushopt, a});
                break;
              default:
                prog.push_back({PmOp::Kind::Sfence, 0});
                break;
            }
        }

        Tick cut = 1 + rng.below(nsToTicks(500));
        CrashHarness::Report rep =
            CrashHarness::runToCrash(factory, prog, cut);
        checkAgainstReferenceModel(rep, seed);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

// ---- Restart / recovery ----------------------------------------------

TEST(CrashRecovery, RestartedWorldServesNewRequests)
{
    nvram::NvramConfig cfg = crashConfig();
    SystemFactory factory = vansFactory(cfg);
    std::vector<PmOp> prog = CrashHarness::loggedWrites(0, 4);
    CrashHarness::Report rep = CrashHarness::runToCrash(
        factory, prog, static_cast<Tick>(-1) / 2);
    ASSERT_EQ(rep.image.lineCount(), 4u);

    // Recovery: the restarted world carries the durable image and
    // runs like any fresh world on top of it.
    EventQueue eq;
    std::unique_ptr<MemorySystem> sys =
        CrashHarness::restart(factory, eq, rep.image);
    EXPECT_FALSE(sys->powerFailed());
    lens::Driver drv(*sys);
    EXPECT_GT(drv.read(0), 0u);
    drv.write(4 * cacheLineSize);
    drv.sfence();

    MediaImage after;
    sys->powerFail(after);
    EXPECT_EQ(after.lineCount(), 5u);
    for (const auto &[line, ver] : rep.image.lines())
        EXPECT_EQ(after.versionOf(line), ver);
}
