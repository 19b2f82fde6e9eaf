/**
 * @file
 * Six-channel socket tests. The interleaved 6-DIMM world of Fig 7a
 * runs on one event queue like every other world: socket worlds run
 * side by side on any number of sweep threads give byte-identical
 * metrics and traces, a forked socket continues bit-identically to a
 * continuous one and to its forks on other threads, the socket is
 * quiescent only once every channel has drained, and its topology
 * guards reject malformed sockets loudly.
 *
 * Suites with Sharded in their names keep the names they had when
 * each channel ran on its own kernel shard, so their results can be
 * followed across the history of the suite.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.hh"
#include "common/snapshot.hh"
#include "common/sweep.hh"
#include "common/trace_event.hh"
#include "lens/driver.hh"
#include "nvram/vans_system.hh"
#include "tests/test_util.hh"

using namespace vans;
using vans::test::smallConfig;
using vans::test::VansFixture;

namespace
{

/** The fully populated socket, shrunk to test cost. */
nvram::NvramConfig
socket6()
{
    nvram::NvramConfig cfg = smallConfig();
    cfg.numDimms = 6;
    cfg.interleaved = true;
    return cfg;
}

/** The socket in Memory mode, with 64-set caches for cheap conflicts. */
nvram::NvramConfig
memoryModeSocket6()
{
    nvram::NvramConfig cfg = socket6();
    cfg.mode = nvram::SystemMode::Memory;
    cfg.dcacheCapacity = 4096;
    return cfg;
}

/** Fig 5-style pointer-chase + streamed mixed traffic, all 6 ways. */
void
fig05Workload(lens::Driver &drv)
{
    std::vector<Addr> addrs;
    for (unsigned i = 0; i < 96; ++i)
        addrs.push_back(static_cast<Addr>(i) * 4096 + (i % 4) * 64);
    drv.streamWrites(addrs, 16);
    drv.streamReads(addrs, 8);
    for (unsigned i = 0; i < 12; ++i)
        drv.read(static_cast<Addr>(i) * 8192);
    drv.fence();
}

/** Fig 7a-style sequential write burst spanning all interleaves. */
void
fig07aWorkload(lens::Driver &drv)
{
    for (unsigned rep = 0; rep < 3; ++rep)
        drv.writeBlock(static_cast<Addr>(rep) * 49152, 24576);
    drv.fence();
}

/** Persistence-ops workload: NT-store and clwb persist blocks,
 *  clflushopt writebacks and sfences across all interleaves. */
void
persistWorkload(lens::Driver &drv)
{
    for (unsigned rep = 0; rep < 4; ++rep) {
        Addr base = static_cast<Addr>(rep) * 16384;
        drv.persistBlockNt(base, 1024);
        drv.persistBlockCached(base + 8192, 512);
        drv.clflushopt(base + 12288);
        drv.sfence();
    }
    drv.fence();
}

/** Memory-mode traffic touching every interleave with conflict
 *  misses, dirty evicts and persist ops. */
void
memoryModeWorkload(lens::Driver &drv)
{
    std::vector<Addr> addrs;
    for (unsigned i = 0; i < 96; ++i)
        addrs.push_back(static_cast<Addr>(i) * 4096 + (i % 4) * 64);
    drv.streamWrites(addrs, 16);
    drv.streamReads(addrs, 8);
    for (unsigned i = 0; i < 96; ++i)
        drv.read(addrs[i] + 256 * 1024); // Aliasing second pass.
    for (unsigned i = 0; i < 12; ++i)
        drv.clwb(static_cast<Addr>(i) * 8192);
    drv.fence();
}

/** Everything a socket run produces that must not depend on the
 *  sweep's thread count. */
struct RunOutput
{
    std::string metrics;
    std::string trace;
    Tick end = 0;
    std::uint64_t mediaWrites = 0;
};

using Workload = void (*)(lens::Driver &);

std::string
metricsJson(MemorySystem &sys)
{
    MetricsRegistry reg;
    sys.metricsInto(reg);
    return reg.toJson();
}

/** One traced socket world running @p work to quiescence. */
RunOutput
runSocket(nvram::NvramConfig cfg, Workload work)
{
    cfg.trace = true;
    EventQueue eq;
    nvram::VansSystem sys(eq, cfg, "vans");
    lens::Driver drv(sys);
    work(drv);
    drv.drain();
    RunOutput out;
    out.metrics = metricsJson(sys);
    out.trace = sys.tracer()->toChromeJson();
    out.end = eq.curTick();
    out.mediaWrites = sys.totalMediaWrites();
    return out;
}

/** Identical worlds per sweep, enough to keep every thread busy. */
constexpr std::size_t sweepCopies = 4;

/**
 * Run @p work once serially, then as sweepCopies identical points on
 * 2 and on 4 sweep threads: every copy must byte-match the serial
 * run. @return the serial run.
 */
RunOutput
expectBitIdenticalAcrossThreadCounts(const nvram::NvramConfig &cfg,
                                     Workload work)
{
    RunOutput serial = runSocket(cfg, work);
    EXPECT_FALSE(serial.metrics.empty());
    EXPECT_FALSE(serial.trace.empty());
    EXPECT_GT(serial.mediaWrites, 0u);
    for (unsigned threads : {2u, 4u}) {
        std::vector<RunOutput> copies =
            SweepRunner(threads).map<RunOutput>(
                sweepCopies,
                [&cfg, work](std::size_t) { return runSocket(cfg, work); });
        for (std::size_t i = 0; i < copies.size(); ++i) {
            EXPECT_EQ(serial.metrics, copies[i].metrics)
                << "metrics diverge at " << threads << " threads, copy "
                << i;
            EXPECT_EQ(serial.trace, copies[i].trace)
                << "trace diverges at " << threads << " threads, copy "
                << i;
            EXPECT_EQ(serial.end, copies[i].end);
        }
    }
    return serial;
}

} // namespace

// ---- Sweep-level parallelism -----------------------------------------

TEST(ShardedDeterminism, Fig05MetricsAndTraceBitIdentical)
{
    setQuiet(true);
    expectBitIdenticalAcrossThreadCounts(socket6(), fig05Workload);
}

TEST(ShardedDeterminism, Fig07aMetricsAndTraceBitIdentical)
{
    setQuiet(true);
    expectBitIdenticalAcrossThreadCounts(socket6(), fig07aWorkload);
}

TEST(ShardedDeterminism, PersistOpsBitIdentical)
{
    // The persistence ops (sfence ADR polling, clwb/clflushopt
    // writebacks, WC partial-drain charges) keep worlds on sweep
    // threads bit-identical to the serial run.
    setQuiet(true);
    expectBitIdenticalAcrossThreadCounts(socket6(), persistWorkload);
}

TEST(MemoryModeSharded, BitIdenticalAcrossThreadCounts)
{
    setQuiet(true);
    RunOutput serial = expectBitIdenticalAcrossThreadCounts(
        memoryModeSocket6(), memoryModeWorkload);
    // The workload exercised the caches: dirty evicts are present in
    // the byte-compared metrics.
    EXPECT_NE(serial.metrics.find("dirty_evicts"), std::string::npos);
}

TEST(ShardedDeterminism, SweepRunnerEntryPoint)
{
    // Distinct socket worlds, one per sweep point: results come back
    // in point order and byte-match the serial runner.
    setQuiet(true);
    constexpr Workload workloads[] = {fig05Workload, fig07aWorkload,
                                      persistWorkload,
                                      memoryModeWorkload};
    auto point = [&workloads](std::size_t i) {
        Workload work = workloads[i];
        return runSocket(work == memoryModeWorkload ? memoryModeSocket6()
                                                    : socket6(),
                         work);
    };
    std::vector<RunOutput> serial =
        SweepRunner(1).map<RunOutput>(std::size(workloads), point);
    std::vector<RunOutput> par =
        SweepRunner(4).map<RunOutput>(std::size(workloads), point);
    ASSERT_EQ(serial.size(), par.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_NE(serial[i].metrics,
                  serial[(i + 1) % serial.size()].metrics)
            << "point " << i;
        EXPECT_EQ(serial[i].metrics, par[i].metrics) << "point " << i;
        EXPECT_EQ(serial[i].trace, par[i].trace) << "point " << i;
        EXPECT_EQ(serial[i].end, par[i].end) << "point " << i;
    }
}

// ---- Snapshot / fork -------------------------------------------------

TEST(ShardedSnapshot, ForkIsBitIdenticalAcrossThreadCounts)
{
    setQuiet(true);
    nvram::NvramConfig cfg = socket6();

    // Reference: one world runs warm-up and measurement back to back.
    VansFixture ref(cfg);
    fig07aWorkload(ref.drv);
    ref.drv.drain();
    fig05Workload(ref.drv);
    ref.drv.drain();

    // Fork: capture the same warm-up, restore it into a fresh world,
    // and run only the measurement there.
    VansFixture proto(cfg);
    fig07aWorkload(proto.drv);
    proto.drv.drain();
    auto snap = snapshot::WorldSnapshot::capture(proto.eq, proto.sys);

    VansFixture fork(cfg);
    snap.restoreInto(fork.eq, fork.sys);
    fig05Workload(fork.drv);
    fork.drv.drain();

    EXPECT_EQ(fork.eq.curTick(), ref.eq.curTick());
    EXPECT_GT(fork.sys.totalMediaWrites(), 0u);
    EXPECT_TRUE(fork.sys.imc().stats().identicalTo(ref.sys.imc().stats()));
    for (unsigned i = 0; i < cfg.numDimms; ++i) {
        nvram::NvramDimm &f = fork.sys.dimm(i);
        nvram::NvramDimm &r = ref.sys.dimm(i);
        EXPECT_TRUE(fork.sys.imc().channelStats(i).identicalTo(
            ref.sys.imc().channelStats(i)))
            << "channel " << i;
        EXPECT_TRUE(f.lsq().stats().identicalTo(r.lsq().stats()))
            << "channel " << i;
        EXPECT_TRUE(f.rmw().stats().identicalTo(r.rmw().stats()))
            << "channel " << i;
        EXPECT_TRUE(f.ait().stats().identicalTo(r.ait().stats()))
            << "channel " << i;
        EXPECT_TRUE(f.ait().mediaDev().stats().identicalTo(
            r.ait().mediaDev().stats()))
            << "channel " << i;
    }

    // The same capture forked into worlds on sweep threads: every
    // fork byte-matches the serial one.
    std::string forkMetrics = metricsJson(fork.sys);
    SweepRunner::WarmStart ws;
    ws.factory = [&cfg](EventQueue &eq) {
        return std::make_unique<nvram::VansSystem>(eq, cfg, "vans");
    };
    ws.snap = snap;
    for (unsigned threads : {2u, 4u}) {
        std::vector<std::string> forks =
            SweepRunner(threads).mapForked<std::string>(
                ws, sweepCopies, [](MemorySystem &sys, std::size_t) {
                    lens::Driver drv(sys);
                    fig05Workload(drv);
                    drv.drain();
                    return metricsJson(sys);
                });
        for (std::size_t i = 0; i < forks.size(); ++i)
            EXPECT_EQ(forkMetrics, forks[i])
                << "fork " << i << " diverges at " << threads
                << " threads";
    }
}

TEST(ShardedSnapshot, QuiescenceRequiredAcrossAllShards)
{
    setQuiet(true);
    VansFixture f(socket6());
    // A store to the last channel completes at WPQ acceptance; its
    // line is still crossing that channel's bus, so the socket is not
    // quiescent although channel 0 never saw traffic.
    Addr last = 5 * 4096;
    ASSERT_EQ(f.sys.imc().dimmOf(last), 5u);
    f.drv.write(last);
    EXPECT_EQ(f.sys.imc().wpqOccupancy(5), 1u);
    EXPECT_FALSE(f.sys.quiescent());
    f.drv.drain();
    EXPECT_TRUE(f.sys.quiescent());
    EXPECT_TRUE(
        snapshot::WorldSnapshot::capture(f.eq, f.sys).valid());
}

// ---- Topology guards -------------------------------------------------

TEST(ShardedConfigDeathTest, RejectsZeroDimms)
{
    nvram::NvramConfig cfg = smallConfig();
    cfg.numDimms = 0;
    EXPECT_DEATH(cfg.validate(), "num_dimms");
}

TEST(ShardedConfigDeathTest, RejectsNonPowerOfTwoInterleave)
{
    EXPECT_DEATH(nvram::NvramConfig::fromString("[nvram]\n"
                                                "num_dimms = 6\n"
                                                "interleaved = true\n"
                                                "interleave_bytes = 3000\n"),
                 "power of two");
}

TEST(ShardedConfigDeathTest, RejectsInterleaveBelowCacheLine)
{
    nvram::NvramConfig cfg = socket6();
    cfg.interleaveBytes = 32;
    EXPECT_DEATH(cfg.validate(), "power of two");
}

TEST(ShardedConfigDeathTest, RejectsInterleaveBeyondCapacity)
{
    nvram::NvramConfig cfg = socket6();
    cfg.interleaveBytes = cfg.dimmCapacity * 2;
    EXPECT_DEATH(cfg.validate(), "exceeds");
}

TEST(ShardedConfigDeathTest, RejectsAddressBeyondSocket)
{
    nvram::NvramConfig cfg = smallConfig();
    cfg.numDimms = 2;
    cfg.interleaved = true;
    VansFixture f(cfg);
    Addr beyond = static_cast<Addr>(cfg.numDimms) * cfg.dimmCapacity;
    EXPECT_DEATH(f.drv.read(beyond), "beyond the .*socket capacity");
}
