/**
 * @file
 * Tests for the fan-out substrate: parallelFor, hardwareThreads and
 * the SweepRunner -- in particular that parallel sweeps are
 * bit-identical to their serial reference execution.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hh"
#include "common/sweep.hh"
#include "lens/probers.hh"
#include "nvram/vans_system.hh"
#include "tests/test_util.hh"

using namespace vans;

TEST(ParallelFor, VisitsEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> hits(1000);
    parallelFor(hits.size(), 4,
                [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, RunsInlineWithoutPool)
{
    int calls = 0;
    parallelFor(5, 1, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 5);
}

TEST(ParallelFor, PropagatesExceptions)
{
    EXPECT_THROW(parallelFor(16, 2,
                             [](std::size_t i) {
                                 if (i == 7)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
}

TEST(ParallelFor, NestedCallsRunInline)
{
    // A nested sweep runs on the thread that called it: it must not
    // start threads of its own.
    std::atomic<int> total{0};
    std::atomic<int> offThread{0};
    parallelFor(4, 2, [&](std::size_t) {
        std::thread::id outer = std::this_thread::get_id();
        parallelFor(4, 2, [&](std::size_t) {
            total.fetch_add(1);
            if (std::this_thread::get_id() != outer)
                offThread.fetch_add(1);
        });
    });
    EXPECT_EQ(total.load(), 16);
    EXPECT_EQ(offThread.load(), 0);
}

TEST(HardwareThreadsDeathTest, ParsesVansThreadsStrictly)
{
    // Each value is set in a child process, so the suite's own
    // VANS_THREADS stays as it is.
    EXPECT_EXIT(
        {
            setenv("VANS_THREADS", "3", 1);
            std::exit(hardwareThreads() == 3 ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "");
    // strtol used to read "four", "0" and "-2" as 1 thread and "8x"
    // as 8.
    for (const char *bad : {"", "0", "-2", "four", "8x"}) {
        EXPECT_DEATH(
            {
                setenv("VANS_THREADS", bad, 1);
                hardwareThreads();
            },
            "VANS_THREADS='" + std::string(bad) +
                "': expected a whole decimal number")
            << "VANS_THREADS='" << bad << "'";
    }
}

TEST(SweepRunner, MapPreservesIndexOrder)
{
    SweepRunner par(4);
    auto vals = par.map<std::size_t>(
        100, [](std::size_t i) { return i * i; });
    for (std::size_t i = 0; i < vals.size(); ++i)
        EXPECT_EQ(vals[i], i * i);
}

TEST(SweepRunner, PointSeedsAreStable)
{
    auto a = SweepRunner::pointSeed(42, 7);
    auto b = SweepRunner::pointSeed(42, 7);
    auto c = SweepRunner::pointSeed(42, 8);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

namespace
{

/** A small deterministic simulation point: total ticks to stream a
 *  seeded random block pattern through a fresh VANS system. */
std::uint64_t
simPoint(std::size_t i)
{
    EventQueue eq;
    nvram::VansSystem sys(eq, vans::test::smallConfig());
    lens::Driver drv(sys);
    Rng rng(SweepRunner::pointSeed(1234, i));
    for (int n = 0; n < 200; ++n) {
        Addr a = rng.below(1u << 20) & ~static_cast<Addr>(63);
        if (rng.below(2))
            drv.write(a);
        else
            drv.read(a);
    }
    drv.fence();
    return eq.curTick();
}

/** Bit-for-bit equality of two curves, point by point. */
void
expectSameCurve(const Curve &ref, const Curve &out)
{
    ASSERT_EQ(ref.size(), out.size()) << ref.name();
    for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(ref[i].x, out[i].x) << ref.name() << " point " << i;
        EXPECT_EQ(ref[i].y, out[i].y) << ref.name() << " point " << i;
    }
}

SystemFactory
smallFactory(nvram::NvramConfig cfg = vans::test::smallConfig())
{
    return [cfg](EventQueue &eq) {
        return std::make_unique<nvram::VansSystem>(eq, cfg);
    };
}

} // namespace

TEST(SweepRunner, ParallelSimulationMatchesSerial)
{
    SweepRunner serial(1);
    SweepRunner par(4);
    auto ref = serial.map<std::uint64_t>(12, simPoint);
    auto out = par.map<std::uint64_t>(12, simPoint);
    EXPECT_EQ(ref, out);
}

TEST(SweepRunner, FactoryProberMatchesAcrossThreadCounts)
{
    setQuiet(true);
    lens::BufferProberParams bp;
    bp.maxRegion = 1ull << 20;
    bp.warmupLines = 600;
    bp.measureLines = 300;

    auto ref = lens::runBufferProber(smallFactory(), bp, SweepRunner(1));
    auto out = lens::runBufferProber(smallFactory(), bp, SweepRunner(4));

    for (auto curve : {&lens::BufferProbe::loadCurve,
                       &lens::BufferProbe::storeCurve,
                       &lens::BufferProbe::load256Curve,
                       &lens::BufferProbe::store256Curve,
                       &lens::BufferProbe::rawCurve,
                       &lens::BufferProbe::rwSumCurve,
                       &lens::BufferProbe::readAmpL1,
                       &lens::BufferProbe::readAmpL2,
                       &lens::BufferProbe::writeAmpWpq,
                       &lens::BufferProbe::writeAmpLsq})
        expectSameCurve(ref.*curve, out.*curve);
    EXPECT_EQ(ref.readBufferCapacities, out.readBufferCapacities);
    EXPECT_EQ(ref.writeQueueCapacities, out.writeQueueCapacities);
    EXPECT_EQ(ref.readEntrySizeL1, out.readEntrySizeL1);
    EXPECT_EQ(ref.readEntrySizeL2, out.readEntrySizeL2);
    EXPECT_EQ(ref.inclusiveHierarchy, out.inclusiveHierarchy);
    EXPECT_EQ(ref.levelLatenciesNs, out.levelLatenciesNs);

    // The policy prober runs its overwrite series as point 0, next
    // to the tail-ratio points, and writes that analysis into the
    // result from inside the sweep. Its tail regions sit 1 GB above
    // the base, past the small DIMM.
    nvram::NvramConfig wide = vans::test::smallConfig();
    wide.dimmCapacity = nvram::NvramConfig::optaneDefault().dimmCapacity;
    lens::PolicyProberParams pp;
    pp.overwriteIterations = 2000;
    pp.tailRegions = {256, 4096, 65536};
    pp.tailSweepBytes = 256ull << 10;
    auto pref =
        lens::runPolicyProber(smallFactory(wide), pp, SweepRunner(1));
    auto pout =
        lens::runPolicyProber(smallFactory(wide), pp, SweepRunner(4));
    ASSERT_EQ(pref.overwriteIterationNs.size(), pp.overwriteIterations);
    ASSERT_EQ(pref.tailRatioCurve.size(), pp.tailRegions.size());
    EXPECT_GT(pref.tailLatencyUs, 0) << "no migration tail to compare";
    EXPECT_GT(pref.tailRatioCurve[0].y, 0);
    EXPECT_EQ(pref.overwriteIterationNs, pout.overwriteIterationNs);
    EXPECT_EQ(pref.normalWriteNs, pout.normalWriteNs);
    EXPECT_EQ(pref.tailLatencyUs, pout.tailLatencyUs);
    EXPECT_EQ(pref.tailIntervalWrites, pout.tailIntervalWrites);
    expectSameCurve(pref.tailRatioCurve, pout.tailRatioCurve);
    EXPECT_EQ(pref.wearBlockSize, pout.wearBlockSize);

    nvram::NvramConfig inter = vans::test::smallConfig();
    inter.numDimms = 6;
    inter.interleaved = true;
    lens::PolicyProbe iref, iout;
    lens::runInterleaveProbe(smallFactory(inter), smallFactory(), iref,
                             8192, SweepRunner(1));
    lens::runInterleaveProbe(smallFactory(inter), smallFactory(), iout,
                             8192, SweepRunner(4));
    ASSERT_EQ(iref.seqWriteInterleaved.size(), 16u);
    expectSameCurve(iref.seqWriteInterleaved, iout.seqWriteInterleaved);
    expectSameCurve(iref.seqWriteSingle, iout.seqWriteSingle);
    EXPECT_EQ(iref.interleaveGranularity, iout.interleaveGranularity);
}

// A prober whose sweep span passes the DIMM's capacity fails before
// its first access, naming the parameter and the capacity.
TEST(ProberDeathTest, BufferMaxRegionPastCapacityFails)
{
    setQuiet(true);
    lens::BufferProberParams bp; // 256 MB sweep on a 64 MB DIMM.
    EXPECT_DEATH(lens::runBufferProber(smallFactory(), bp, SweepRunner(1)),
                 "maxRegion 268435456 from base 0 ends past the "
                 "67108864-byte capacity");
}

TEST(ProberDeathTest, PolicyTailRegionsPastCapacityFails)
{
    setQuiet(true);
    lens::PolicyProberParams pp; // Tail regions from 1 GB up.
    EXPECT_DEATH(lens::runPolicyProber(smallFactory(), pp, SweepRunner(1)),
                 "tailRegions\\[0\\] = 256 at 0x40108000 ends past the "
                 "67108864-byte capacity");
}
