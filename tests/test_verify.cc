/**
 * @file
 * Tests for the model-integrity verifier: the contract framework
 * (check.hh), the request-lifecycle checker, the NVM pipeline
 * invariant checker, the online DDR4 checker mode, and -- most
 * importantly -- the negative tests proving each checker actually
 * catches the corruption it exists for. A checker whose failure path
 * is never exercised is indistinguishable from no checker at all.
 */

#include <gtest/gtest.h>

#include "common/check.hh"
#include "common/event_queue.hh"
#include "common/lifecycle.hh"
#include "common/logging.hh"
#include "dram/checker.hh"
#include "dram/controller.hh"
#include "lens/microbench.hh"
#include "nvram/nvm_checker.hh"
#include "tests/test_util.hh"

using namespace vans;
using vans::test::VansFixture;

// ---- Contract framework -------------------------------------------

TEST(CheckFrameworkDeath, RequirePanicsWithContext)
{
    auto fail = [] {
        VANS_REQUIRE("test.fatal", 42, 1 == 2, "%d != %d", 1, 2);
    };
    const int line = __LINE__ - 2;
    // The whole report: kind, subsystem, expression text, call site,
    // tick and detail.
    EXPECT_DEATH(fail(),
                 strFormat("require violated: \\[test\\.fatal\\] "
                           "`1 == 2` at .*test_verify\\.cc:%d "
                           "tick=42: 1 != 2",
                           line));
}

TEST(CheckFramework, MonitorAccumulatesWhenNotFailFast)
{
    verify::Monitor mon(/*fail_fast=*/false);
    EXPECT_TRUE(mon.clean());
    mon.report({"sub", "rule-a", "first", 10});
    mon.report({"sub", "rule-a", "second", 20});
    mon.report({"sub", "rule-b", "third", 30});
    EXPECT_FALSE(mon.clean());
    EXPECT_EQ(mon.reported(), 3u);
    EXPECT_EQ(mon.countRule("rule-a"), 2u);
    EXPECT_EQ(mon.countRule("rule-b"), 1u);
    EXPECT_NE(mon.failures()[0].str().find("rule-a"),
              std::string::npos);
    mon.clear();
    EXPECT_TRUE(mon.clean());
}

TEST(CheckFrameworkDeath, MonitorFailFastPanics)
{
    verify::Monitor mon(/*fail_fast=*/true);
    EXPECT_DEATH(mon.report({"sub", "boom", "detail", 1}),
                 "verification failure.*boom");
}

// ---- Event-queue contracts ----------------------------------------

TEST(EventQueueDeath, PastTickScheduleIsRejected)
{
    EventQueue eq;
    eq.schedule(1000, [] {});
    while (eq.step()) {
    }
    ASSERT_EQ(eq.curTick(), 1000u);
    EXPECT_DEATH(eq.schedule(999, [] {}), "eventq.*past");
}

// ---- Request lifecycle checker ------------------------------------

namespace
{

// The lifecycle checker is id-keyed and never owns requests, so a
// plain stack descriptor is all these unit tests need.
Request
issuedReq(std::uint64_t id, Tick issue_tick)
{
    Request r;
    r.addr = 0x1000;
    r.op = MemOp::ReadNT;
    r.id = id;
    r.issueTick = issue_tick;
    return r;
}

} // namespace

TEST(Lifecycle, CleanRunHasNoFindings)
{
    EventQueue eq;
    verify::Monitor mon(false);
    verify::RequestLifecycleChecker chk(eq, mon);

    auto r = issuedReq(1, 0);
    chk.onIssue(r);
    chk.onQueued(r);
    chk.onServiced(r);
    chk.onRetire(r);
    chk.finalCheck(true);

    EXPECT_TRUE(mon.clean());
    EXPECT_EQ(chk.issued(), 1u);
    EXPECT_EQ(chk.retired(), 1u);
    EXPECT_EQ(chk.inFlight(), 0u);
    EXPECT_EQ(chk.peakInFlight(), 1u);
}

TEST(Lifecycle, DoubleRetireCaught)
{
    EventQueue eq;
    verify::Monitor mon(false);
    verify::RequestLifecycleChecker chk(eq, mon);

    auto r = issuedReq(1, 0);
    chk.onIssue(r);
    chk.onRetire(r);
    chk.onRetire(r); // The bug: completion callback fired twice.

    EXPECT_EQ(mon.countRule("double-retire"), 1u);
    EXPECT_EQ(mon.reported(), 1u);
}

TEST(Lifecycle, CompleteBeforeIssueCaught)
{
    EventQueue eq;
    eq.schedule(500, [] {});
    while (eq.step()) {
    }
    verify::Monitor mon(false);
    verify::RequestLifecycleChecker chk(eq, mon);

    auto r = issuedReq(1, 400);
    chk.onIssue(r);
    r.completeTick = 300; // Before its own issue tick.
    chk.onRetire(r);

    EXPECT_EQ(mon.countRule("complete-before-issue"), 1u);
}

TEST(Lifecycle, StaleIdCaught)
{
    EventQueue eq;
    verify::Monitor mon(false);
    verify::RequestLifecycleChecker chk(eq, mon);

    auto a = issuedReq(5, 0);
    chk.onIssue(a);
    auto b = issuedReq(5, 0); // Re-used id.
    chk.onIssue(b);

    EXPECT_EQ(mon.countRule("stale-id"), 1u);
    EXPECT_EQ(mon.countRule("double-issue"), 1u);
    EXPECT_EQ(mon.reported(), 2u);
}

TEST(Lifecycle, StageRegressionCaught)
{
    EventQueue eq;
    verify::Monitor mon(false);
    verify::RequestLifecycleChecker chk(eq, mon);

    auto r = issuedReq(1, 0);
    chk.onIssue(r);
    chk.onServiced(r);
    chk.onQueued(r); // Data returned, then back into a queue?

    EXPECT_EQ(mon.countRule("stage-regression"), 1u);
}

TEST(Lifecycle, LostRequestCaughtOnDrain)
{
    EventQueue eq;
    verify::Monitor mon(false);
    verify::RequestLifecycleChecker chk(eq, mon);

    auto r = issuedReq(1, 0);
    chk.onIssue(r);

    chk.finalCheck(/*queue_drained=*/false);
    EXPECT_TRUE(mon.clean()); // Cut-off runs keep requests in flight.

    chk.finalCheck(/*queue_drained=*/true);
    EXPECT_EQ(mon.countRule("lost-request"), 1u);
}

// ---- NVM invariant checker (fabricated snapshots) ------------------

namespace
{

struct InvFixture
{
    InvFixture()
        : cfg(nvram::NvramConfig::optaneDefault()),
          mon(false),
          chk(eq, cfg, mon)
    {}

    EventQueue eq;
    nvram::NvramConfig cfg;
    verify::Monitor mon;
    nvram::NvmInvariantChecker chk;
};

} // namespace

TEST(NvmInvariants, CleanSnapshotReportsNothing)
{
    InvFixture f;
    nvram::Occupancy o;
    o.wpq = f.cfg.wpqEntries; // At capacity is legal...
    o.lsq = f.cfg.lsqEntries;
    o.rmw = f.cfg.rmwEntries;
    o.aitIntake = 4;
    o.aitIntakeCap = 4;
    f.chk.auditOccupancy(o, 0, 0);
    EXPECT_TRUE(f.mon.clean());
}

TEST(NvmInvariants, OverCapacityLsqCaught)
{
    InvFixture f;
    nvram::Occupancy o;
    o.lsq = f.cfg.lsqEntries + 1; // ...one past capacity is not.
    f.chk.auditOccupancy(o, 0, 7);
    EXPECT_EQ(f.mon.countRule("lsq-capacity"), 1u);
    EXPECT_EQ(f.mon.reported(), 1u); // Exactly the intended rule.
    EXPECT_EQ(f.mon.failures()[0].tick, 7u);
}

TEST(NvmInvariants, OverCapacityWpqCaught)
{
    InvFixture f;
    nvram::Occupancy o;
    o.wpq = f.cfg.wpqEntries + 1;
    f.chk.auditOccupancy(o, 2, 0);
    EXPECT_EQ(f.mon.countRule("wpq-capacity"), 1u);
    EXPECT_EQ(f.mon.reported(), 1u);
    EXPECT_EQ(f.mon.failures()[0].subsystem, "nvram.dimm2");
}

TEST(NvmInvariants, OverCapacityRmwAndAitCaught)
{
    InvFixture f;
    nvram::Occupancy o;
    o.rmw = f.cfg.rmwEntries + 3;
    o.aitBuf = f.cfg.aitBufEntries + 1;
    o.aitIntake = 5;
    o.aitIntakeCap = 4;
    f.chk.auditOccupancy(o, 0, 0);
    EXPECT_EQ(f.mon.countRule("rmw-capacity"), 1u);
    EXPECT_EQ(f.mon.countRule("ait-buffer-capacity"), 1u);
    EXPECT_EQ(f.mon.countRule("ait-intake-capacity"), 1u);
    EXPECT_EQ(f.mon.reported(), 3u);
}

TEST(NvmInvariants, WearAccountingCaught)
{
    InvFixture f;
    nvram::WearState w;
    w.migrations = 3;
    w.mediaWrites = 2 * f.cfg.wearThreshold; // One migration unpaid.
    f.chk.auditWear(w, 0, 0);
    EXPECT_EQ(f.mon.countRule("wear-accounting"), 1u);

    // Exactly paid-for migrations are legal.
    f.mon.clear();
    w.mediaWrites = 3 * f.cfg.wearThreshold;
    f.chk.auditWear(w, 0, 0);
    EXPECT_TRUE(f.mon.clean());
}

TEST(NvmInvariants, StaleMigrationCaught)
{
    InvFixture f;
    nvram::WearState w;
    w.active = 1;
    w.earliestEnd = 100; // The "now" below is already past this.
    f.chk.auditWear(w, 0, 500);
    EXPECT_EQ(f.mon.countRule("stale-migration"), 1u);

    f.mon.clear();
    w.earliestEnd = 900; // Ends in the future: fine.
    f.chk.auditWear(w, 0, 500);
    EXPECT_TRUE(f.mon.clean());
}

// ---- Verified end-to-end runs -------------------------------------

TEST(VerifiedRun, ConfigKnobAttachesVerifier)
{
    nvram::NvramConfig cfg = test::smallConfig();
    cfg.verify = true;
    VansFixture f(cfg);
    ASSERT_NE(f.sys.verifier(), nullptr);
}

TEST(VerifiedRun, TrafficStaysCleanAndIsAudited)
{
    nvram::NvramConfig cfg = test::smallConfig();
    cfg.verify = true;
    VansFixture f(cfg);
    ASSERT_NE(f.sys.verifier(), nullptr);

    for (int i = 0; i < 64; ++i) {
        f.drv.write(0x10000 + i * 64);
        f.drv.read(0x10000 + i * 64);
    }
    f.drv.fence();

    auto &v = *f.sys.verifier();
    EXPECT_TRUE(v.monitor().clean());
    EXPECT_GE(v.lifecycle().issued(), 128u);
    EXPECT_EQ(v.lifecycle().issued(), v.lifecycle().retired());
    EXPECT_EQ(v.lifecycle().inFlight(), 0u);
    EXPECT_GT(v.invariants().audits(), 0u);
}

TEST(VerifiedRun, WearMigrationsStayAccounted)
{
    nvram::NvramConfig cfg = test::smallConfig(); // wearThreshold 500.
    cfg.verify = true;
    VansFixture f(cfg);

    // Hammer one 256B region past the wear threshold so migrations
    // actually happen while the verifier audits every completion.
    lens::overwrite(f.drv, 0, 256, 1200);
    f.drv.fence();

    EXPECT_GE(f.sys.totalMigrations(), 1u);
    EXPECT_TRUE(f.sys.verifier()->monitor().clean());
}

// ---- DDR4 checker: online mode + extra illegal streams -------------

TEST(OnlineDdr4, ControllerSelfChecksWhenEnabled)
{
    EventQueue eq;
    dram::DramGeometry geom;
    dram::DramController ctrl(eq, dram::DramTiming::ddr4_2666(), geom,
                              dram::SchedPolicy::FRFCFS,
                              dram::MapScheme::RowBankCol, "dut");
    ctrl.enableOnlineCheck();
    ASSERT_NE(ctrl.onlineChecker(), nullptr);

    unsigned done = 0;
    for (unsigned i = 0; i < 200; ++i)
        ctrl.access(i * 64, i % 3 == 0, 64, [&done](Tick) { ++done; });
    while (done < 200 && eq.step()) {
    }
    ASSERT_EQ(done, 200u);

    EXPECT_GT(ctrl.onlineChecker()->commandsChecked(), 0u);
    EXPECT_TRUE(ctrl.onlineChecker()->violations().empty());
}

TEST(OnlineDdr4, IncrementalMatchesBatch)
{
    auto t = dram::DramTiming::ddr4_2666();
    dram::DramGeometry g;
    // An illegal stream: premature CAS + ACT on an open bank.
    std::vector<dram::DramCommand> cmds = {
        {0, dram::DramCmd::ACT, 0, 0, 0, 1, 0},
        {t.cyc(2), dram::DramCmd::RD, 0, 0, 0, 1, 0},
        {t.cyc(100), dram::DramCmd::ACT, 0, 0, 0, 2, 0},
    };

    dram::Ddr4Checker batch(t, g);
    auto bv = batch.check(cmds);
    ASSERT_FALSE(bv.empty());

    dram::Ddr4Checker online(t, g);
    for (const auto &c : cmds)
        online.feed(c);

    ASSERT_EQ(online.violations().size(), bv.size());
    for (std::size_t i = 0; i < bv.size(); ++i) {
        EXPECT_EQ(online.violations()[i].rule, bv[i].rule);
        EXPECT_EQ(online.violations()[i].cmdIndex, bv[i].cmdIndex);
    }
    EXPECT_EQ(online.commandsChecked(), cmds.size());
}

TEST(Checker, CatchesTrpViolation)
{
    auto t = dram::DramTiming::ddr4_2666();
    dram::DramGeometry g;
    dram::Ddr4Checker checker(t, g);
    // PRE is legal (tRAS satisfied), but the re-activation comes only
    // five cycles later: tRP demands more. The ACT-to-ACT gap of 105
    // cycles keeps tRC satisfied, so exactly tRP fires.
    std::vector<dram::DramCommand> cmds = {
        {0, dram::DramCmd::ACT, 0, 0, 0, 1, 0},
        {t.cyc(100), dram::DramCmd::PRE, 0, 0, 0, 1, 0},
        {t.cyc(105), dram::DramCmd::ACT, 0, 0, 0, 2, 0},
    };
    auto v = checker.check(cmds);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].rule, "tRP");
    EXPECT_EQ(v[0].cmdIndex, 2u);
}

TEST(Checker, CatchesPreOnClosedBank)
{
    auto t = dram::DramTiming::ddr4_2666();
    dram::DramGeometry g;
    dram::Ddr4Checker checker(t, g);
    std::vector<dram::DramCommand> cmds = {
        {t.cyc(10), dram::DramCmd::PRE, 0, 0, 0, 0, 0},
    };
    auto v = checker.check(cmds);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].rule, "PRE-on-closed");
}

TEST(Checker, CatchesTrfcViolation)
{
    auto t = dram::DramTiming::ddr4_2666();
    dram::DramGeometry g;
    dram::Ddr4Checker checker(t, g);
    std::vector<dram::DramCommand> cmds = {
        {t.cyc(10), dram::DramCmd::REF, 0, 0, 0, 0, 0},
        // ACT before the refresh cycle time elapsed.
        {t.cyc(12), dram::DramCmd::ACT, 0, 0, 0, 1, 0},
    };
    auto v = checker.check(cmds);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].rule, "tRFC");
}

TEST(Checker, ResetClearsStreamState)
{
    auto t = dram::DramTiming::ddr4_2666();
    dram::DramGeometry g;
    dram::Ddr4Checker checker(t, g);
    checker.feed({0, dram::DramCmd::RD, 0, 0, 0, 1, 0});
    ASSERT_EQ(checker.violations().size(), 1u);
    EXPECT_EQ(checker.violations()[0].rule, "CAS-on-closed");

    checker.reset();
    EXPECT_TRUE(checker.violations().empty());
    EXPECT_EQ(checker.commandsChecked(), 0u);
    // The same first command fails identically after a reset.
    checker.feed({0, dram::DramCmd::RD, 0, 0, 0, 1, 0});
    ASSERT_EQ(checker.violations().size(), 1u);
    EXPECT_EQ(checker.violations()[0].cmdIndex, 0u);
}
