/**
 * @file
 * Tests for the DDR4 DRAM model: timing presets, address mapping,
 * controller behaviour, and the protocol checker (including
 * property-style sweeps that run random traffic through the
 * controller and assert the resulting command stream is legal --
 * this repo's substitute for the Micron verification model flow of
 * paper section IV-B).
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/event_queue.hh"
#include "common/rng.hh"
#include "dram/address_map.hh"
#include "dram/checker.hh"
#include "dram/controller.hh"

using namespace vans;
using namespace vans::dram;

namespace
{

/** What one batch of random traffic did. */
struct SweepRun
{
    std::vector<Violation> violations;
    std::uint64_t events = 0;   ///< Events the queue executed.
    std::size_t commands = 0;   ///< DRAM commands emitted.
};

/** Run @p accesses issued at tick 0 until the last completes. */
SweepRun
runSweep(const DramTiming &timing, SchedPolicy policy,
         unsigned accesses, double write_frac, std::uint64_t addr_space,
         std::uint64_t seed, std::uint32_t size = 64)
{
    EventQueue eq;
    DramGeometry geom;
    geom.capacityBytes = 1ull << 30;
    DramController ctrl(eq, timing, geom, policy,
                        MapScheme::RowBankCol, "dut");
    ctrl.trace().setEnabled(true);

    Rng rng(seed);
    unsigned done = 0;
    for (unsigned i = 0; i < accesses; ++i) {
        Addr a = rng.below(addr_space / 64) * 64;
        bool w = rng.uniform() < write_frac;
        ctrl.access(a, w, size, [&done](Tick) { ++done; });
    }
    // Drain: run until all accesses completed.
    while (done < accesses) {
        if (!eq.step())
            break;
    }
    EXPECT_EQ(done, accesses);

    SweepRun out;
    Ddr4Checker checker(timing, geom);
    out.violations = checker.check(ctrl.trace().commands());
    out.events = eq.executed();
    out.commands = ctrl.trace().commands().size();
    return out;
}

/** Run a batch and return its protocol violations. */
std::vector<Violation>
runAndCheck(const DramTiming &timing, SchedPolicy policy,
            unsigned accesses, double write_frac,
            std::uint64_t addr_space, std::uint64_t seed,
            std::uint32_t size = 64)
{
    return runSweep(timing, policy, accesses, write_frac, addr_space,
                    seed, size)
        .violations;
}

} // namespace

TEST(DramTiming, PresetsAreConsistent)
{
    auto t4 = DramTiming::ddr4_2666();
    EXPECT_EQ(t4.tCL, 19u);
    EXPECT_EQ(t4.tRAS, 43u);
    EXPECT_GE(t4.tRC, t4.tRAS + t4.tRP - 1);
    // One cycle at 1333MHz is ~750ps.
    EXPECT_NEAR(static_cast<double>(t4.cyc(1)), 750.0, 1.0);

    auto t3 = DramTiming::ddr3_1600();
    EXPECT_LT(t3.clockMhz, t4.clockMhz);

    auto pcm = DramTiming::pcmLike();
    EXPECT_GT(pcm.tRCD, t4.tRCD * 3);
    EXPECT_GT(pcm.tWR, t4.tWR * 10);
    EXPECT_EQ(pcm.tREFI, 0u); // Non-volatile: no refresh.
}

TEST(AddressMap, CoordinatesInRange)
{
    DramGeometry geom;
    geom.capacityBytes = 1ull << 30;
    AddressMap map(geom, MapScheme::RowBankCol);
    Rng rng(1);
    for (int i = 0; i < 2000; ++i) {
        Addr a = rng.below(geom.capacityBytes);
        auto c = map.decode(a);
        EXPECT_LT(c.rank, geom.ranks);
        EXPECT_LT(c.bankGroup, geom.bankGroups);
        EXPECT_LT(c.bank, geom.banksPerGroup);
        EXPECT_LT(c.row, geom.rowsPerBank());
        EXPECT_LT(c.column, geom.rowBytes / cacheLineSize);
    }
}

TEST(AddressMap, RowBankColKeepsRowLocality)
{
    DramGeometry geom;
    AddressMap map(geom, MapScheme::RowBankCol);
    // Consecutive lines within a row-sized block share bank and row.
    auto c0 = map.decode(0);
    for (Addr a = 64; a < geom.rowBytes; a += 64) {
        auto c = map.decode(a);
        EXPECT_TRUE(c.sameBank(c0));
        EXPECT_EQ(c.row, c0.row);
    }
}

TEST(AddressMap, BankStripeSpreadsChunks)
{
    DramGeometry geom;
    AddressMap map(geom, MapScheme::BankStripe);
    // 256B-aligned chunks land on different banks.
    auto c0 = map.decode(0);
    auto c1 = map.decode(256);
    EXPECT_FALSE(c0.sameBank(c1));
}

// A multi-line access decodes its first line and steps the column
// while the lines stay in one bank and row; the result must equal a
// decode() of every line.
TEST(AddressMap, StepColumnMatchesDecode)
{
    Rng rng(3);
    for (MapScheme scheme : {MapScheme::RowBankCol, MapScheme::BankStripe}) {
        for (unsigned ranks : {1u, 2u}) {
            DramGeometry geom;
            geom.ranks = ranks;
            geom.capacityBytes = static_cast<std::uint64_t>(ranks) << 30;
            AddressMap map(geom, scheme);
            // (start, bytes): row-aligned and unaligned starts, each
            // crossing at least one row boundary, then random ones.
            std::vector<std::pair<Addr, std::uint32_t>> accesses = {
                {0, 2 * 8192},
                {8192 - 3 * 64, 8 * 64},
                {8192 - 100, 300},
                {3 * 8192 + 17, 8192},
                {geom.capacityBytes - 8192 - 40, 2 * 8192},
            };
            for (int i = 0; i < 200; ++i)
                accesses.emplace_back(rng.below(geom.capacityBytes - 8192),
                                      1 + rng.below(8192));
            unsigned steps = 0;
            for (auto [start, bytes] : accesses) {
                const Addr first = alignDown(start, 64);
                DramCoord c = map.decode(first);
                for (Addr line = first; line < start + bytes; line += 64) {
                    if (line != first) {
                        if (map.stepColumn(c))
                            ++steps;
                        else
                            c = map.decode(line);
                    }
                    DramCoord want = map.decode(line);
                    ASSERT_TRUE(c.sameBank(want) && c.row == want.row &&
                                c.column == want.column)
                        << "scheme " << static_cast<int>(scheme)
                        << ", " << ranks << " rank(s), line 0x"
                        << std::hex << line;
                }
            }
            EXPECT_GT(steps, 0u); // The fast path ran.
        }
    }
}

TEST(AddressMap, DistinctAddressesDistinctCoords)
{
    DramGeometry geom;
    AddressMap map(geom, MapScheme::RowBankCol);
    auto a = map.decode(0);
    auto b = map.decode(64);
    bool same = a.sameBank(b) && a.row == b.row &&
                a.column == b.column;
    EXPECT_FALSE(same);
}

TEST(DramController, SingleReadLatencyIsActToData)
{
    EventQueue eq;
    auto timing = DramTiming::ddr4_2666();
    DramGeometry geom;
    DramController ctrl(eq, timing, geom);
    Tick done_at = 0;
    ctrl.access(0, false, 64, [&done_at](Tick t) { done_at = t; });
    while (done_at == 0 && eq.step()) {
    }
    // Cold access: ACT + tRCD + tCL + burst, plus scheduling quanta.
    Tick floor = timing.cyc(timing.tRCD + timing.tCL) +
                 timing.burstTicks();
    EXPECT_GE(done_at, floor);
    EXPECT_LE(done_at, floor + timing.cyc(8));
}

TEST(DramController, RowHitFasterThanRowMiss)
{
    EventQueue eq;
    auto timing = DramTiming::ddr4_2666();
    DramGeometry geom;
    DramController ctrl(eq, timing, geom);

    Tick first = 0, hit = 0;
    ctrl.access(0, false, 64, [&](Tick t) { first = t; });
    while (first == 0 && eq.step()) {
    }
    Tick t0 = eq.curTick();
    ctrl.access(64, false, 64, [&](Tick t) { hit = t; });
    while (hit == 0 && eq.step()) {
    }
    Tick hit_latency = hit - t0;
    // Row hit skips ACT: latency ~ tCL + burst.
    EXPECT_LT(hit_latency, timing.cyc(timing.tRCD + timing.tCL));
    EXPECT_EQ(ctrl.stats().scalarValue("row_hits"), 1u);
}

TEST(DramController, LargeAccessCompletesOnce)
{
    EventQueue eq;
    DramGeometry geom;
    DramController ctrl(eq, DramTiming::ddr4_2666(), geom);
    int completions = 0;
    ctrl.access(0, true, 4096, [&](Tick) { ++completions; });
    while (eq.step() && completions == 0) {
    }
    EXPECT_EQ(completions, 1);
    EXPECT_EQ(ctrl.stats().scalarValue("cmd_wr"), 64u);
}

TEST(DramController, RefreshHappens)
{
    EventQueue eq;
    auto timing = DramTiming::ddr4_2666();
    DramGeometry geom;
    DramController ctrl(eq, timing, geom);
    ctrl.trace().setEnabled(true);
    int done = 0;
    ctrl.access(0, false, 64, [&](Tick) { ++done; });
    // Run past several refresh intervals.
    eq.runUntil(timing.cyc(timing.tREFI) * 4);
    EXPECT_GE(ctrl.stats().scalarValue("cmd_ref"), 3u);
}

TEST(DramController, FrfcfsBeatsFcfsOnMixedRows)
{
    // Interleave row-hit and row-miss traffic; FR-FCFS should finish
    // sooner by reordering hits first.
    auto run = [](SchedPolicy pol) {
        EventQueue eq;
        DramGeometry geom;
        DramController ctrl(eq, DramTiming::ddr4_2666(), geom, pol);
        unsigned done = 0;
        Rng rng(5);
        for (int i = 0; i < 64; ++i) {
            // Alternate same-row and far-row accesses.
            Addr a = (i % 2) ? (static_cast<Addr>(i) * 64)
                             : rng.below(1u << 28);
            ctrl.access(alignDown(a, 64), false, 64,
                        [&done](Tick) { ++done; });
        }
        while (done < 64 && eq.step()) {
        }
        return eq.curTick();
    };
    EXPECT_LE(run(SchedPolicy::FRFCFS), run(SchedPolicy::FCFS));
}

// ---- Protocol checker: positive property sweeps -------------------

struct CheckerSweepParam
{
    const char *name;
    double writeFrac;
    std::uint64_t addrSpace;
    std::uint32_t size;
};

// Printed by name: gtest's default byte dump would put the name
// pointer, and so the load address, into every listed test name.
static void
PrintTo(const CheckerSweepParam &p, std::ostream *os)
{
    *os << p.name;
}

class CheckerSweep
    : public ::testing::TestWithParam<CheckerSweepParam>
{};

TEST_P(CheckerSweep, ControllerEmitsLegalDdr4)
{
    const auto &p = GetParam();
    auto v = runAndCheck(DramTiming::ddr4_2666(), SchedPolicy::FRFCFS,
                         400, p.writeFrac, p.addrSpace, 11, p.size);
    for (const auto &viol : v) {
        ADD_FAILURE() << p.name << ": " << viol.rule << " at cmd "
                      << viol.cmdIndex << ": " << viol.detail;
    }
}

// The controller wakes only when a command can issue: every executed
// event is a wake-up that issues at least one command, an access's
// data completion (one per access, not per line), or the one wake-up
// the batch's arrival schedules. A wake-up that finds nothing to
// issue (a tCK poll) or a completion per line breaks the budget.
TEST_P(CheckerSweep, WakeupsOnlyWhenACommandIssues)
{
    const auto &p = GetParam();
    const unsigned accesses = 400;
    SweepRun r = runSweep(DramTiming::ddr4_2666(), SchedPolicy::FRFCFS,
                          accesses, p.writeFrac, p.addrSpace, 11, p.size);
    EXPECT_LE(r.events, r.commands + accesses + 1)
        << p.name << ": " << r.commands << " commands";
}

INSTANTIATE_TEST_SUITE_P(
    Traffic, CheckerSweep,
    ::testing::Values(
        CheckerSweepParam{"read_seq", 0.0, 1 << 16, 64},
        CheckerSweepParam{"read_rand", 0.0, 1u << 28, 64},
        CheckerSweepParam{"write_rand", 1.0, 1u << 28, 64},
        CheckerSweepParam{"mixed_rand", 0.5, 1u << 28, 64},
        CheckerSweepParam{"mixed_hot", 0.5, 1 << 14, 64},
        CheckerSweepParam{"bulk_256B", 0.5, 1u << 26, 256},
        CheckerSweepParam{"bulk_4K", 0.3, 1u << 26, 4096}),
    [](const auto &info) { return std::string(info.param.name); });

TEST(CheckerSweepFcfs, LegalUnderFcfsToo)
{
    auto v = runAndCheck(DramTiming::ddr4_2666(), SchedPolicy::FCFS,
                         300, 0.5, 1u << 26, 13);
    EXPECT_TRUE(v.empty());
}

TEST(CheckerSweepDdr3, LegalWithDdr3Timing)
{
    auto v = runAndCheck(DramTiming::ddr3_1600(), SchedPolicy::FRFCFS,
                         300, 0.5, 1u << 26, 17);
    EXPECT_TRUE(v.empty());
}

TEST(CheckerSweepPcm, LegalWithPcmTiming)
{
    auto v = runAndCheck(DramTiming::pcmLike(), SchedPolicy::FRFCFS,
                         300, 0.5, 1u << 26, 19);
    EXPECT_TRUE(v.empty());
}

// ---- Protocol checker: negative tests (it must catch bugs) --------

TEST(Checker, CatchesActOnOpenBank)
{
    auto t = DramTiming::ddr4_2666();
    DramGeometry g;
    Ddr4Checker checker(t, g);
    std::vector<DramCommand> cmds = {
        {0, DramCmd::ACT, 0, 0, 0, 1, 0},
        {t.cyc(100), DramCmd::ACT, 0, 0, 0, 2, 0},
    };
    auto v = checker.check(cmds);
    ASSERT_FALSE(v.empty());
    EXPECT_EQ(v[0].rule, "ACT-on-open");
}

TEST(Checker, CatchesTrcdViolation)
{
    auto t = DramTiming::ddr4_2666();
    DramGeometry g;
    Ddr4Checker checker(t, g);
    std::vector<DramCommand> cmds = {
        {0, DramCmd::ACT, 0, 0, 0, 1, 0},
        {t.cyc(2), DramCmd::RD, 0, 0, 0, 1, 0}, // Way too early.
    };
    auto v = checker.check(cmds);
    ASSERT_FALSE(v.empty());
    EXPECT_EQ(v[0].rule, "tRCD");
}

TEST(Checker, CatchesCasOnClosedBank)
{
    auto t = DramTiming::ddr4_2666();
    DramGeometry g;
    Ddr4Checker checker(t, g);
    std::vector<DramCommand> cmds = {
        {0, DramCmd::RD, 0, 0, 0, 1, 0},
    };
    auto v = checker.check(cmds);
    ASSERT_FALSE(v.empty());
    EXPECT_EQ(v[0].rule, "CAS-on-closed");
}

TEST(Checker, CatchesRowMismatch)
{
    auto t = DramTiming::ddr4_2666();
    DramGeometry g;
    Ddr4Checker checker(t, g);
    std::vector<DramCommand> cmds = {
        {0, DramCmd::ACT, 0, 0, 0, 1, 0},
        {t.cyc(30), DramCmd::RD, 0, 0, 0, 7, 0},
    };
    auto v = checker.check(cmds);
    ASSERT_FALSE(v.empty());
    EXPECT_EQ(v[0].rule, "CAS-row-mismatch");
}

TEST(Checker, CatchesEarlyPrecharge)
{
    auto t = DramTiming::ddr4_2666();
    DramGeometry g;
    Ddr4Checker checker(t, g);
    std::vector<DramCommand> cmds = {
        {0, DramCmd::ACT, 0, 0, 0, 1, 0},
        {t.cyc(5), DramCmd::PRE, 0, 0, 0, 1, 0}, // tRAS violated.
    };
    auto v = checker.check(cmds);
    ASSERT_FALSE(v.empty());
    EXPECT_EQ(v[0].rule, "tRAS");
}

TEST(Checker, CatchesTwrViolation)
{
    auto t = DramTiming::ddr4_2666();
    DramGeometry g;
    Ddr4Checker checker(t, g);
    std::vector<DramCommand> cmds = {
        {0, DramCmd::ACT, 0, 0, 0, 1, 0},
        {t.cyc(30), DramCmd::WR, 0, 0, 0, 1, 0},
        // PRE after tRAS but within write recovery of the WR above.
        {t.cyc(50), DramCmd::PRE, 0, 0, 0, 1, 0},
    };
    auto v = checker.check(cmds);
    ASSERT_FALSE(v.empty());
    EXPECT_EQ(v[0].rule, "tWR");
}

TEST(Checker, CatchesCcdViolation)
{
    auto t = DramTiming::ddr4_2666();
    DramGeometry g;
    Ddr4Checker checker(t, g);
    std::vector<DramCommand> cmds = {
        {0, DramCmd::ACT, 0, 0, 0, 1, 0},
        {t.cyc(25), DramCmd::RD, 0, 0, 0, 1, 0},
        {t.cyc(26), DramCmd::RD, 0, 0, 0, 1, 0}, // tCCD_L violated.
    };
    auto v = checker.check(cmds);
    ASSERT_FALSE(v.empty());
    EXPECT_EQ(v[0].rule, "tCCD_L");
}

TEST(Checker, CatchesRefreshOnOpenBank)
{
    auto t = DramTiming::ddr4_2666();
    DramGeometry g;
    Ddr4Checker checker(t, g);
    std::vector<DramCommand> cmds = {
        {0, DramCmd::ACT, 0, 0, 0, 1, 0},
        {t.cyc(100), DramCmd::REF, 0, 0, 0, 0, 0},
    };
    auto v = checker.check(cmds);
    ASSERT_FALSE(v.empty());
    EXPECT_EQ(v[0].rule, "REF-open-bank");
}

TEST(Checker, CatchesFawViolation)
{
    auto t = DramTiming::ddr4_2666();
    t.tFAW = 40; // Make the window binding over 4 x tRRD_L spacing.
    DramGeometry g;
    Ddr4Checker checker(t, g);
    // Five ACTs to different banks, far enough apart for tRRD but
    // all within one tFAW window.
    std::vector<DramCommand> cmds;
    for (unsigned i = 0; i < 5; ++i) {
        cmds.push_back({t.cyc(i * t.tRRD_L), DramCmd::ACT, 0, i / 4,
                        i % 4, 1, 0});
    }
    auto v = checker.check(cmds);
    bool found = false;
    for (const auto &viol : v)
        found = found || viol.rule == "tFAW";
    EXPECT_TRUE(found);
}

TEST(Checker, CleanStreamPasses)
{
    auto t = DramTiming::ddr4_2666();
    DramGeometry g;
    Ddr4Checker checker(t, g);
    std::vector<DramCommand> cmds = {
        {t.cyc(10), DramCmd::ACT, 0, 0, 0, 1, 0},
        {t.cyc(10 + t.tRCD), DramCmd::RD, 0, 0, 0, 1, 0},
        {t.cyc(10 + t.tRCD + t.tRTP + t.tRAS), DramCmd::PRE, 0, 0, 0,
         1, 0},
        {t.cyc(200), DramCmd::ACT, 0, 0, 0, 2, 0},
    };
    auto v = checker.check(cmds);
    EXPECT_TRUE(v.empty());
}
