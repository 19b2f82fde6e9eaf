/**
 * @file
 * Unit tests for the VANS NVRAM pipeline: media, wear leveler, AIT,
 * RMW buffer, LSQ, iMC and the assembled system.
 */

#include <gtest/gtest.h>

#include "nvram/ait.hh"
#include "nvram/media.hh"
#include "nvram/wear_leveler.hh"
#include "tests/test_util.hh"

using namespace vans;
using namespace vans::nvram;
using vans::test::VansFixture;

// ---- Media ---------------------------------------------------------

TEST(Media, ReadFasterThanWrite)
{
    EventQueue eq;
    NvramConfig cfg;
    XPointMedia media(eq, cfg);
    Tick rd = 0, wr = 0;
    media.readChunk(0, [&](Tick t) { rd = t; });
    media.writeChunk(cfg.mediaChunkBytes, [&](Tick t) { wr = t; });
    eq.run();
    EXPECT_NEAR(static_cast<double>(rd), cfg.mediaReadNs * 1000, 1);
    EXPECT_NEAR(static_cast<double>(wr), cfg.mediaWriteNs * 1000, 1);
    EXPECT_LT(rd, wr);
}

TEST(Media, SamePartitionSerializes)
{
    EventQueue eq;
    NvramConfig cfg;
    XPointMedia media(eq, cfg);
    Tick first = 0, second = 0;
    media.readChunk(0, [&](Tick t) { first = t; });
    media.readChunk(0, [&](Tick t) { second = t; });
    eq.run();
    EXPECT_NEAR(static_cast<double>(second - first),
                cfg.mediaReadNs * 1000, 1);
}

TEST(Media, DifferentPartitionsOverlap)
{
    EventQueue eq;
    NvramConfig cfg;
    XPointMedia media(eq, cfg);
    Tick a = 0, b = 0;
    media.readChunk(0, [&](Tick t) { a = t; });
    media.readChunk(cfg.mediaChunkBytes, [&](Tick t) { b = t; });
    eq.run();
    EXPECT_EQ(a, b); // Parallel partitions.
}

TEST(Media, DemandOutranksBackgroundFill)
{
    EventQueue eq;
    NvramConfig cfg;
    XPointMedia media(eq, cfg);
    Tick fill1 = 0, fill2 = 0, demand = 0;
    // One fill in service, one queued, then a demand read arrives:
    // it must jump the queued fill.
    media.readChunkBackground(0, [&](Tick t) { fill1 = t; });
    media.readChunkBackground(0, [&](Tick t) { fill2 = t; });
    media.readChunk(0, [&](Tick t) { demand = t; });
    eq.run();
    EXPECT_LT(demand, fill2);
    EXPECT_GT(demand, fill1);
}

TEST(Media, WriteBackpressureSignalled)
{
    EventQueue eq;
    NvramConfig cfg;
    XPointMedia media(eq, cfg);
    // Fill the write queue of partition 0 beyond its depth.
    for (int i = 0; i < 5; ++i)
        media.writeChunk(0, nullptr);
    EXPECT_FALSE(media.canAccept(0));
    // Another partition is unaffected.
    EXPECT_TRUE(media.canAccept(cfg.mediaChunkBytes));
    eq.run();
    EXPECT_TRUE(media.canAccept(0));
}

// ---- Wear leveler ---------------------------------------------------

TEST(Wear, MigrationAfterThreshold)
{
    EventQueue eq;
    NvramConfig cfg;
    cfg.wearThreshold = 100;
    WearLeveler wear(eq, cfg);
    for (int i = 0; i < 99; ++i)
        wear.onMediaWrite(0);
    EXPECT_EQ(wear.migrations(), 0u);
    wear.onMediaWrite(0);
    EXPECT_EQ(wear.migrations(), 1u);
    EXPECT_GT(wear.blockedUntil(0), eq.curTick());
    // The counter reset: another 100 writes for the next one.
    EXPECT_EQ(wear.blockWear(0), 0u);
}

TEST(Wear, BlockingIsPerBlock)
{
    EventQueue eq;
    NvramConfig cfg;
    cfg.wearThreshold = 10;
    WearLeveler wear(eq, cfg);
    for (int i = 0; i < 10; ++i)
        wear.onMediaWrite(0);
    EXPECT_GT(wear.blockedUntil(0), 0u);
    // A different 64KB block is not blocked.
    EXPECT_EQ(wear.blockedUntil(cfg.wearBlockBytes), 0u);
}

TEST(Wear, MigrationCompletes)
{
    EventQueue eq;
    NvramConfig cfg;
    cfg.wearThreshold = 10;
    cfg.migrationUs = 5;
    WearLeveler wear(eq, cfg);
    for (int i = 0; i < 10; ++i)
        wear.onMediaWrite(0);
    Tick end = wear.blockedUntil(0);
    EXPECT_NEAR(static_cast<double>(end), 5000 * 1000, 1);
    eq.run();
    EXPECT_EQ(wear.blockedUntil(0), 0u);
}

TEST(Wear, MigrationHookFires)
{
    EventQueue eq;
    NvramConfig cfg;
    cfg.wearThreshold = 4;
    WearLeveler wear(eq, cfg);
    Addr got_block = 1;
    std::uint64_t got_wear = 0;
    wear.onMigration = [&](Addr b, std::uint64_t w) {
        got_block = b;
        got_wear = w;
    };
    for (int i = 0; i < 4; ++i)
        wear.onMediaWrite(cfg.wearBlockBytes * 3 + 128);
    EXPECT_EQ(got_block, cfg.wearBlockBytes * 3);
    EXPECT_EQ(got_wear, 4u);
}

// ---- AIT ------------------------------------------------------------

TEST(Ait, MissSlowerThanHit)
{
    EventQueue eq;
    NvramConfig cfg;
    Ait ait(eq, cfg, "ait");
    Tick miss = 0, hit = 0;
    ait.read(4096, [&](Tick t) { miss = t; });
    while (miss == 0 && eq.step()) {
    }
    Tick t0 = eq.curTick();
    ait.read(4096, [&](Tick t) { hit = t; });
    while (hit == 0 && eq.step()) {
    }
    EXPECT_LT(hit - t0, miss);
    EXPECT_EQ(ait.stats().scalarValue("buf_misses"), 1u);
    EXPECT_EQ(ait.stats().scalarValue("buf_hits"), 1u);
}

TEST(Ait, MissFillsWholePageFromMedia)
{
    EventQueue eq;
    NvramConfig cfg;
    Ait ait(eq, cfg, "ait");
    bool done = false;
    ait.read(0, [&](Tick) { done = true; });
    while (eq.pending() > 0 && eq.curTick() < nsToTicks(100000))
        eq.step();
    EXPECT_TRUE(done);
    // 4KB line = 16 chunks of 256B fetched.
    EXPECT_EQ(ait.mediaDev().stats().scalarValue("chunk_reads"),
              cfg.aitLineBytes / cfg.mediaChunkBytes);
}

TEST(Ait, ReadForFillDoesNotAllocate)
{
    EventQueue eq;
    NvramConfig cfg;
    Ait ait(eq, cfg, "ait");
    bool done = false;
    ait.readForFill(0, [&](Tick) { done = true; });
    while (!done && eq.step()) {
    }
    // Only the single chunk was read, and a subsequent read still
    // misses (no allocation happened).
    EXPECT_EQ(ait.mediaDev().stats().scalarValue("chunk_reads"), 1u);
    bool done2 = false;
    ait.read(0, [&](Tick) { done2 = true; });
    while (!done2 && eq.step()) {
    }
    EXPECT_EQ(ait.stats().scalarValue("buf_misses"), 2u);
}

TEST(Ait, WritesAreWriteThrough)
{
    EventQueue eq;
    NvramConfig cfg;
    Ait ait(eq, cfg, "ait");
    for (int i = 0; i < 3; ++i) {
        bool done = false;
        ASSERT_TRUE(ait.canAcceptWrite());
        ait.acceptWrite(static_cast<Addr>(i) * 256,
                        [&](Tick) { done = true; });
        while (!done && eq.step()) {
        }
    }
    EXPECT_EQ(ait.mediaDev().stats().scalarValue("chunk_writes"), 3u);
    EXPECT_EQ(ait.wearLeveler().stats().scalarValue("media_writes"),
              3u);
}

TEST(Ait, WriteIntakeBackpressure)
{
    EventQueue eq;
    NvramConfig cfg;
    Ait ait(eq, cfg, "ait");
    // Saturate one partition's write path; intake must fill.
    int accepted = 0;
    while (ait.canAcceptWrite() && accepted < 64) {
        ait.acceptWrite(0, nullptr);
        ++accepted;
    }
    EXPECT_LT(accepted, 64);
    eq.runUntil(eq.curTick() + nsToTicks(200000));
    EXPECT_TRUE(ait.canAcceptWrite());
    EXPECT_TRUE(ait.writeQuiescent());
}

TEST(Ait, MigrationStallsWrites)
{
    EventQueue eq;
    NvramConfig cfg;
    cfg.wearThreshold = 8;
    cfg.migrationUs = 30;
    Ait ait(eq, cfg, "ait");
    // Trigger a migration on block 0.
    Tick last_write = 0;
    for (int i = 0; i < 9; ++i) {
        bool done = false;
        while (!ait.canAcceptWrite()) {
            if (!eq.step())
                break;
        }
        ait.acceptWrite(0, [&](Tick t) {
            done = true;
            last_write = t;
        });
        while (!done && eq.step()) {
        }
    }
    EXPECT_EQ(ait.wearLeveler().migrations(), 1u);
    // The 9th write (first after migration start) stalled ~30us.
    EXPECT_GT(last_write, nsToTicks(30000));
    EXPECT_GE(ait.stats().scalarValue("migration_stalls"), 1u);
}

// ---- RMW buffer / LSQ through the DIMM -------------------------------

TEST(Rmw, SubLineWriteTriggersFill)
{
    VansFixture f;
    f.drv.write(0); // 64B < 256B entry.
    f.drv.fence();
    EXPECT_EQ(f.sys.totalRmwFills(), 1u);
}

TEST(Rmw, CombinedFullLineWriteSkipsFill)
{
    VansFixture f;
    // All four lines of one 256B block: LSQ combines, no RMW fill.
    for (Addr a = 0; a < 256; a += 64)
        f.drv.write(a);
    f.drv.fence();
    EXPECT_EQ(f.sys.totalRmwFills(), 0u);
}

TEST(Rmw, ReadCachesLine)
{
    VansFixture f;
    Tick cold = f.drv.read(0);
    Tick warm = f.drv.read(0);
    EXPECT_LT(warm, cold);
    auto &rmw = f.sys.dimm(0).rmw();
    EXPECT_EQ(rmw.stats().scalarValue("read_hits"), 1u);
}

TEST(Rmw, ReadOfNeighborLineHitsAfterFill)
{
    VansFixture f;
    f.drv.read(0);
    // 64..255 are in the same 256B line: hits.
    Tick t = f.drv.read(128);
    EXPECT_LT(t, nsToTicks(250));
    EXPECT_EQ(f.sys.dimm(0).rmw().stats().scalarValue("read_hits"),
              1u);
}

TEST(Lsq, SealOnFenceDrainsPartialBlocks)
{
    VansFixture f;
    f.drv.write(0); // One 64B line: partial block.
    auto &lsq = f.sys.dimm(0).lsq();
    EXPECT_EQ(lsq.stats().scalarValue("partial_drains"), 0u);
    f.drv.fence();
    EXPECT_GE(lsq.stats().scalarValue("partial_drains"), 1u);
    EXPECT_TRUE(lsq.writeQuiescent());
}

TEST(Lsq, CombinesWithoutFence)
{
    VansFixture f;
    for (Addr a = 0; a < 256; a += 64)
        f.drv.write(a);
    // Allow drains to complete.
    f.drv.idle(nsToTicks(5000));
    auto &lsq = f.sys.dimm(0).lsq();
    EXPECT_GE(lsq.stats().scalarValue("combined_drains"), 1u);
    EXPECT_EQ(lsq.stats().scalarValue("partial_drains"), 0u);
}

TEST(Lsq, ReadAfterWriteHazardDetected)
{
    VansFixture f;
    // Warm reference: an RMW-cached read of another line.
    f.drv.read(1 << 16);
    Tick warm = f.drv.read(1 << 16);
    f.drv.write(64);
    // Immediately read the written line: it is still in WPQ or LSQ.
    Tick raw_lat = f.drv.read(64);
    // The hazard path is slower than a warm cached read.
    EXPECT_GT(raw_lat, warm);
    auto hazards =
        f.sys.dimm(0).lsq().stats().scalarValue("raw_hazards") +
        f.sys.imc().channelStats(0).scalarValue("wpq_read_hazards");
    EXPECT_GE(hazards, 1u);
}

// ---- iMC -------------------------------------------------------------

TEST(Imc, WpqMergeIsFast)
{
    VansFixture f;
    // Back-to-back stores to one line outpace the WPQ drain and
    // merge in place.
    std::vector<Addr> addrs(32, 0);
    f.drv.streamWrites(addrs, 16);
    EXPECT_GE(f.sys.imc().channelStats(0).scalarValue("wpq_merges"), 1u);
}

TEST(Imc, FenceWaitsForFullDrain)
{
    VansFixture f;
    for (int i = 0; i < 16; ++i)
        f.drv.write(static_cast<Addr>(i) * 64);
    Tick fence_lat = f.drv.fence();
    EXPECT_GT(fence_lat, 0u);
    // After the fence the whole write path is quiet.
    EXPECT_TRUE(f.sys.dimm(0).writeQuiescent());
    EXPECT_GE(f.sys.totalMediaWrites(), 4u);
}

TEST(Imc, InterleavingRoutesBy4K)
{
    nvram::NvramConfig cfg;
    cfg.numDimms = 4;
    cfg.interleaved = true;
    VansFixture f(cfg);
    auto &imc = f.sys.imc();
    EXPECT_EQ(imc.dimmOf(0), 0u);
    EXPECT_EQ(imc.dimmOf(4095), 0u);
    EXPECT_EQ(imc.dimmOf(4096), 1u);
    EXPECT_EQ(imc.dimmOf(4096 * 4), 0u);
    EXPECT_EQ(imc.dimmOf(4096 * 5 + 64), 1u);
}

TEST(Imc, NonInterleavedUsesCapacityRouting)
{
    nvram::NvramConfig cfg;
    cfg.numDimms = 2;
    cfg.interleaved = false;
    VansFixture f(cfg);
    auto &imc = f.sys.imc();
    EXPECT_EQ(imc.dimmOf(0), 0u);
    EXPECT_EQ(imc.dimmOf(cfg.dimmCapacity), 1u);
}

TEST(Imc, WpqHazardBurstReleasedByOneDrain)
{
    VansFixture f;
    auto &imc = f.sys.imc();
    // Two rounds on the same channel: the drain that retires a WPQ
    // line must release every read parked behind it, and the second
    // round reuses the channel's hazard staging buffer.
    constexpr unsigned kReaders = 4;
    unsigned completed = 0;
    for (unsigned round = 0; round < 2; ++round) {
        Addr line = static_cast<Addr>(round) * 64;
        RequestPool &pool = f.sys.pool();
        auto w = f.sys.makeRequest(line, MemOp::WriteNT);
        f.sys.request(w).onComplete =
            [&completed, &pool, w](Request &) {
                ++completed;
                pool.release(w);
            };
        f.sys.issue(w);
        // Issued the same tick as the write, the reads' arrival
        // events run after the write's (seq-FIFO), so each sees the
        // line held in the WPQ and parks on it.
        for (unsigned i = 0; i < kReaders; ++i) {
            auto r = f.sys.makeRequest(line, MemOp::ReadNT);
            f.sys.request(r).onComplete =
                [&completed, &pool, r](Request &) {
                    ++completed;
                    pool.release(r);
                };
            f.sys.issue(r);
        }
        // Step, don't run(): the AIT buffer's refresh timer keeps
        // the queue populated forever.
        unsigned want = (round + 1) * (kReaders + 1);
        while (completed < want && f.eq.step()) {
        }
        ASSERT_EQ(completed, want);
    }
    EXPECT_EQ(completed, 2 * (kReaders + 1));
    EXPECT_EQ(imc.channelStats(0).scalarValue("wpq_read_hazards"),
              2 * kReaders);
    // A fence drains the write path; after idling out background
    // fills, nothing may be left parked on a hazard.
    f.drv.fence();
    f.drv.idle(nsToTicks(5000));
    EXPECT_TRUE(imc.quiescent());
}

TEST(Imc, BusTurnaroundsCounted)
{
    VansFixture f;
    f.drv.write(0);
    f.drv.read(4096);
    f.drv.write(8192);
    f.drv.fence();
    EXPECT_GE(
        f.sys.imc().channelStats(0).scalarValue("bus_turnarounds"), 1u);
}

// ---- System-level latency ordering -----------------------------------

TEST(Vans, LatencyOrderingAcrossLevels)
{
    VansFixture f;
    // Cold read: media path.
    Tick media_lat = f.drv.read(1 << 20);
    // Warm RMW hit.
    Tick rmw_lat = f.drv.read(1 << 20);
    // Evict from RMW but stay in AIT buffer: read many other lines.
    for (int i = 0; i < 128; ++i)
        f.drv.read((2ull << 20) + static_cast<Addr>(i) * 4096);
    Tick ait_lat = f.drv.read((1 << 20) + 256);
    EXPECT_LT(rmw_lat, ait_lat);
    EXPECT_LT(ait_lat, media_lat);
}

TEST(Vans, CapacityReflectsConfig)
{
    nvram::NvramConfig cfg;
    cfg.numDimms = 6;
    VansFixture f(cfg);
    EXPECT_EQ(f.sys.capacity(), 6 * cfg.dimmCapacity);
    EXPECT_EQ(f.sys.name(), "vans");
}

TEST(Vans, WriteLatencyWpqVsDrainRegimes)
{
    VansFixture f;
    // Within one 512B region: merges dominate -> cheap stores.
    std::vector<Addr> small;
    for (int i = 0; i < 512; ++i)
        small.push_back((static_cast<Addr>(i) % 8) * 64);
    Tick t_small = f.drv.streamWrites(small, 16);
    f.drv.fence();
    // Spread over 64KB: WPQ misses + RMW fills -> much slower.
    std::vector<Addr> big;
    for (int i = 0; i < 512; ++i)
        big.push_back((static_cast<Addr>(i) * 131) % 1024 * 64);
    Tick t_big = f.drv.streamWrites(big, 16);
    f.drv.fence();
    EXPECT_GT(t_big, t_small * 2);
}
