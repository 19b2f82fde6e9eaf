/**
 * @file
 * The reproduction's flagship property: LENS, treating the memory
 * system as a black box (request streams + latencies only), must
 * reverse engineer the microarchitectural parameters we planted in
 * VANS -- the experiment the paper performs against real Optane
 * hardware in section III, made falsifiable.
 */

#include <gtest/gtest.h>

#include "lens/report.hh"
#include "tests/test_util.hh"

using namespace vans;
using namespace vans::lens;
using vans::test::VansFixture;

namespace
{

/** Fresh VANS worlds with @p cfg planted. */
SystemFactory
plant(nvram::NvramConfig cfg = nvram::NvramConfig::optaneDefault())
{
    setQuiet(true);
    return [cfg](EventQueue &eq) {
        return std::make_unique<nvram::VansSystem>(eq, cfg);
    };
}

/** ctest already runs the tests side by side, so each prober runs
 *  its points in sequence; the result is the same at any thread
 *  count (SweepRunner.FactoryProberMatchesAcrossThreadCounts). */
const SweepRunner serial(1);

BufferProberParams
fastBufferParams(std::uint64_t max_region)
{
    BufferProberParams p;
    p.maxRegion = max_region;
    p.warmupLines = 8000;
    p.measureLines = 2500;
    return p;
}

} // namespace

TEST(LensRecovery, ReadBufferCapacities)
{
    auto probe =
        runBufferProber(plant(), fastBufferParams(64ull << 20), serial);
    ASSERT_GE(probe.readBufferCapacities.size(), 2u)
        << "expected two read-buffer levels (RMW 16K, AIT 16M)";
    EXPECT_EQ(probe.readBufferCapacities[0], 16u << 10);
    EXPECT_EQ(probe.readBufferCapacities[1], 16u << 20);
}

TEST(LensRecovery, WriteQueueCapacities)
{
    auto probe =
        runBufferProber(plant(), fastBufferParams(1 << 20), serial);
    ASSERT_GE(probe.writeQueueCapacities.size(), 2u)
        << "expected two write-queue levels (WPQ 512B, LSQ 4K)";
    EXPECT_EQ(probe.writeQueueCapacities[0], 512u);
    // The region-granularity estimate brackets the LSQ within 2x
    // (combining keeps absorbing slightly past exact capacity).
    EXPECT_GE(probe.writeQueueCapacities[1], 4u << 10);
    EXPECT_LE(probe.writeQueueCapacities[1], 8u << 10);
}

TEST(LensRecovery, HierarchyIsInclusive)
{
    auto probe =
        runBufferProber(plant(), fastBufferParams(16 << 20), serial);
    EXPECT_TRUE(probe.inclusiveHierarchy)
        << "RaW must show no parallel fast-forward speedup";
}

TEST(LensRecovery, LevelLatenciesAreOrdered)
{
    auto probe =
        runBufferProber(plant(), fastBufferParams(64ull << 20), serial);
    ASSERT_GE(probe.levelLatenciesNs.size(), 3u);
    // RMW < AIT-buffer < media, with plausible magnitudes.
    EXPECT_GT(probe.levelLatenciesNs[0], 100);
    EXPECT_LT(probe.levelLatenciesNs[0], 250);
    EXPECT_GT(probe.levelLatenciesNs[1],
              probe.levelLatenciesNs[0] * 1.3);
    EXPECT_GT(probe.levelLatenciesNs[2],
              probe.levelLatenciesNs[1] * 1.1);
}

TEST(LensRecovery, ReadAmplificationKnees)
{
    auto probe =
        runBufferProber(plant(), fastBufferParams(64ull << 20), serial);
    // RMW entry = 256B, AIT entry = 4KB (paper Fig 6a). The score
    // floor compresses each knee by up to one power of two.
    EXPECT_GE(probe.readEntrySizeL1, 128u);
    EXPECT_LE(probe.readEntrySizeL1, 512u);
    EXPECT_GE(probe.readEntrySizeL2, 2048u);
    EXPECT_LE(probe.readEntrySizeL2, 4096u);
    // Scores decline monotonically-ish: first point clearly above 1,
    // last point near 1.
    ASSERT_FALSE(probe.readAmpL2.empty());
    double first = probe.readAmpL2.points().front().y;
    double last = probe.readAmpL2.points().back().y;
    EXPECT_GT(first, last * 1.5);
}

TEST(LensRecovery, AlteredRmwCapacityIsDetected)
{
    // Plant a 32KB RMW buffer instead of 16KB: LENS must see the
    // first read inflection move accordingly -- the "reconfigure for
    // other NVRAM DIMMs" claim of paper section IV-E.
    nvram::NvramConfig cfg = nvram::NvramConfig::optaneDefault();
    cfg.rmwEntries = 128; // 128 x 256B = 32KB.
    auto probe =
        runBufferProber(plant(cfg), fastBufferParams(1 << 20), serial);
    ASSERT_GE(probe.readBufferCapacities.size(), 1u);
    EXPECT_EQ(probe.readBufferCapacities[0], 32u << 10);
}

TEST(LensRecovery, SmallerWpqIsDetected)
{
    nvram::NvramConfig cfg = nvram::NvramConfig::optaneDefault();
    cfg.wpqEntries = 4; // 256B WPQ.
    auto probe = runBufferProber(plant(cfg), fastBufferParams(256 << 10),
                                 serial);
    ASSERT_GE(probe.writeQueueCapacities.size(), 1u);
    EXPECT_EQ(probe.writeQueueCapacities[0], 256u);
}

TEST(LensRecovery, MigrationParameters)
{
    // Smaller threshold keeps the test quick; LENS must recover the
    // planted interval and latency.
    nvram::NvramConfig cfg = nvram::NvramConfig::optaneDefault();
    cfg.wearThreshold = 2000;
    cfg.migrationUs = 40;

    PolicyProberParams pp;
    pp.overwriteIterations = 9000;
    pp.tailRegions = {};
    auto probe = runPolicyProber(plant(cfg), pp, serial);

    EXPECT_NEAR(probe.tailIntervalWrites, 2000, 200)
        << "migration every ~wearThreshold 256B writes";
    EXPECT_NEAR(probe.tailLatencyUs, 40, 12);
    // >10x the normal write latency (paper: >100x at the real
    // 50us/0.4us ratio).
    EXPECT_GT(probe.tailLatencyUs * 1000,
              probe.normalWriteNs * 10);
}

TEST(LensRecovery, WearBlockSize)
{
    nvram::NvramConfig cfg = nvram::NvramConfig::optaneDefault();
    cfg.wearThreshold = 1500;
    cfg.migrationUs = 40;

    PolicyProberParams pp;
    pp.overwriteIterations = 4000;
    pp.tailRegions = {256, 4096, 65536, 262144};
    pp.tailSweepBytes = 3ull << 20;
    auto probe = runPolicyProber(plant(cfg), pp, serial);

    // The ratio must collapse once the region spans >1 wear block.
    ASSERT_EQ(probe.tailRatioCurve.size(), 4u);
    double small = probe.tailRatioCurve[0].y;
    double big = probe.tailRatioCurve[3].y;
    EXPECT_GT(small, 0);
    EXPECT_LT(big, small * 0.35);
    EXPECT_GT(probe.wearBlockSize, 0u);
    EXPECT_LE(probe.wearBlockSize, 256u << 10);
}

TEST(LensRecovery, InterleaveGranularity)
{
    nvram::NvramConfig inter = nvram::NvramConfig::optaneDefault();
    inter.numDimms = 6;
    inter.interleaved = true;

    PolicyProbe probe;
    runInterleaveProbe(plant(inter), plant(), probe, 16384, serial);
    EXPECT_EQ(probe.interleaveGranularity, 4096u)
        << "4KB multi-DIMM interleaving (paper Fig 7a)";
}

TEST(LensRecovery, AlteredInterleaveGranularityDetected)
{
    nvram::NvramConfig inter = nvram::NvramConfig::optaneDefault();
    inter.numDimms = 6;
    inter.interleaved = true;
    inter.interleaveBytes = 8192;

    PolicyProbe probe;
    runInterleaveProbe(plant(inter), plant(), probe, 32768, serial);
    EXPECT_EQ(probe.interleaveGranularity, 8192u);
}

TEST(LensRecovery, PerfProberBandwidthOrdering)
{
    VansFixture f;
    BufferProbe buffers; // Level latencies not needed here.
    auto perf = runPerfProber(f.drv, buffers);
    // Sequential beats random for both directions; reads beat
    // writes; magnitudes in the real device's ballpark.
    EXPECT_GT(perf.seqReadGbps, perf.randReadGbps * 2);
    EXPECT_GT(perf.seqWriteGbps, perf.randWriteGbps);
    // Real single-DIMM, single-thread sequential reads land around
    // 2.4 GB/s (Izraelevitz et al.); interleaved 6-DIMM is higher.
    EXPECT_GT(perf.seqReadGbps, 2.0);
    EXPECT_LT(perf.seqReadGbps, 10.0);
    EXPECT_GT(perf.seqWriteGbps, 0.8);
    EXPECT_LT(perf.seqWriteGbps, 4.0);
}
