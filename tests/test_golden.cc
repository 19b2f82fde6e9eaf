/**
 * @file
 * Golden model digests. Outputs are deterministic per seed, so a
 * change that claims to be a pure refactor or a pure speedup must
 * leave every hash below unchanged:
 *
 *  - the DDR4 command stream (every command and the final tick) of
 *    the controller's property-sweep traffic, under FR-FCFS, FCFS,
 *    DDR3 and PCM timing, on 1-, 2- and 8-rank channels under both
 *    address maps, plus a staggered-arrival pattern whose accesses
 *    land while the controller waits on a wake-up;
 *  - the MetricsRegistry JSON of a few small worlds, minus the
 *    event-kernel groups (those count the simulator's own events,
 *    not the model's behaviour);
 *  - two short CpuCore runs over the Table V cache hierarchy: their
 *    CoreStats plus the world's and the caches' metrics;
 *  - four worlds that drive every counter the worlds above leave at
 *    zero (persistence, hazards, RMW bypass, AIT evictions, wear,
 *    the Memory Mode write-back and flush paths, LLC writebacks, the
 *    lazy cache and Pre-translation), two of them also hashing their
 *    snapshot stream and dump() text: the event kernel's groups in a
 *    digest of their own, so a change that only saves events
 *    re-records only that one;
 *  - the quiescent() predicate along a seeded request stream, paced
 *    in simulated time, in each snapshot world.
 *
 * A deliberate model change re-records the constants and says why.
 * The hash is 64-bit FNV-1a.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include "baselines/dram_system.hh"
#include "cache/hierarchy.hh"
#include "common/event_queue.hh"
#include "common/check.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/rng.hh"
#include "common/snapshot.hh"
#include "cpu/core.hh"
#include "dram/controller.hh"
#include "lens/driver.hh"
#include "lens/microbench.hh"
#include "nvram/vans_system.hh"
#include "opt/lazy_cache.hh"
#include "opt/pretranslation.hh"
#include "tests/test_util.hh"
#include "trace/trace.hh"
#include "workloads/cloud.hh"
#include "workloads/spec_synth.hh"

using namespace vans;
using namespace vans::dram;

namespace
{

/** 64-bit FNV-1a over a byte stream. */
class Fnv1a
{
  public:
    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            unsigned char b = static_cast<unsigned char>(v >> (8 * i));
            bytes(&b, 1);
        }
    }

    /** The bit pattern of @p v, so any change in the last place
     *  shows. */
    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xcbf29ce484222325ull;
};

/** Hash every command of @p ctrl's trace plus @p final_tick. */
std::uint64_t
commandDigest(DramController &ctrl, Tick final_tick)
{
    Fnv1a f;
    for (const DramCommand &c : ctrl.trace().commands()) {
        f.u64(c.tick);
        f.u64(static_cast<std::uint64_t>(c.cmd));
        f.u64(c.rank);
        f.u64(c.bankGroup);
        f.u64(c.bank);
        f.u64(c.row);
        f.u64(c.column);
    }
    f.u64(final_tick);
    return f.value();
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
    return buf;
}

/** A channel of @p ranks ranks of 16 banks, 1 GB per rank. */
DramGeometry
channelGeometry(unsigned ranks = 1)
{
    DramGeometry g;
    g.ranks = ranks;
    g.capacityBytes = static_cast<std::uint64_t>(ranks) << 30;
    return g;
}

/** The shape of one channel under test. */
struct Channel
{
    DramTiming timing;
    SchedPolicy policy;
    DramGeometry geom = channelGeometry();
    MapScheme scheme = MapScheme::RowBankCol;
};

/**
 * The property-sweep traffic of the DRAM tests on @p ch: @p accesses
 * of @p read_size or @p write_size bytes issued at tick 0, run until
 * the last completes.
 */
std::uint64_t
sweepDigest(const Channel &ch, unsigned accesses, double write_frac,
            std::uint64_t addr_space, std::uint64_t seed,
            std::uint32_t read_size, std::uint32_t write_size)
{
    EventQueue eq;
    DramController ctrl(eq, ch.timing, ch.geom, ch.policy, ch.scheme,
                        "dut");
    ctrl.trace().setEnabled(true);
    Rng rng(seed);
    unsigned done = 0;
    for (unsigned i = 0; i < accesses; ++i) {
        Addr a = rng.below(addr_space / 64) * 64;
        bool w = rng.uniform() < write_frac;
        ctrl.access(a, w, w ? write_size : read_size,
                    [&done](Tick) { ++done; });
    }
    while (done < accesses && eq.step()) {
    }
    EXPECT_EQ(done, accesses);
    return commandDigest(ctrl, eq.curTick());
}

/** sweepDigest() with one access size for reads and writes. */
std::uint64_t
sweepDigest(const Channel &ch, unsigned accesses, double write_frac,
            std::uint64_t addr_space, std::uint64_t seed,
            std::uint32_t size)
{
    return sweepDigest(ch, accesses, write_frac, addr_space, seed, size,
                       size);
}

/**
 * Staggered arrivals: accesses enter from events at scattered ticks
 * (some on the DRAM clock grid, some between, some sharing a tick),
 * and every third completed read issues a dependent access from
 * inside its completion event. Both kinds land while the controller
 * already waits on a wake-up, and some land on the wake-up's tick.
 */
class Staggered
{
  public:
    Staggered()
        : ctrl(eq, DramTiming::ddr4_2666(), channelGeometry(),
               SchedPolicy::FRFCFS, MapScheme::RowBankCol, "dut")
    {
        ctrl.trace().setEnabled(true);
    }

    std::uint64_t
    run()
    {
        const Tick tck = ctrl.timing().period();
        Tick at = 0;
        for (unsigned i = 0; i < arrivals; ++i) {
            switch (rng.below(3)) {
              case 0: at += rng.below(8) * tck; break;
              case 1: at += rng.below(6000); break;
              default: break; // Same tick as the previous arrival.
            }
            Addr a = rng.below(1u << 14) * 64;
            bool w = rng.uniform() < 0.3;
            ++scheduled;
            eq.schedule(at, [this, a, w] {
                --scheduled;
                enqueue(a, w);
            });
        }
        while ((scheduled > 0 || done < issued) && eq.step()) {
        }
        EXPECT_EQ(done, issued);
        EXPECT_EQ(scheduled, 0u);
        return commandDigest(ctrl, eq.curTick());
    }

  private:
    void
    enqueue(Addr a, bool w)
    {
        ++issued;
        ctrl.access(a, w, 64, [this, a, w](Tick) {
            ++done;
            if (!w && done % 3 == 0 && issued < arrivals + 120)
                enqueue((a + 8192 * (1 + done % 5)) % (1u << 20),
                        done % 2 == 0);
        });
    }

    static constexpr unsigned arrivals = 400;
    EventQueue eq;
    DramController ctrl;
    Rng rng{29};
    unsigned scheduled = 0;
    unsigned issued = 0;
    unsigned done = 0;
};

/** Whether @p g counts the event kernel's own work (`*.kernel`). */
bool
isKernelGroup(const StatGroup &g)
{
    const std::string &n = g.name();
    return n.size() >= 7 && n.compare(n.size() - 7, 7, ".kernel") == 0;
}

/** MetricsRegistry JSON of @p reg without its `*.kernel` groups. */
std::uint64_t
metricsDigest(const MetricsRegistry &reg)
{
    MetricsRegistry model;
    for (const StatGroup *g : reg.all()) {
        if (!isKernelGroup(*g))
            model.add(*g);
    }
    Fnv1a f;
    std::string json = model.toJson();
    f.bytes(json.data(), json.size());
    return f.value();
}

std::uint64_t
worldDigest(MemorySystem &sys)
{
    MetricsRegistry reg;
    sys.metricsInto(reg);
    return metricsDigest(reg);
}

/** 1-DIMM App Direct: LENS pointer-chase loads then stores. */
std::uint64_t
appDirectChase(std::uint64_t region)
{
    setQuiet(true);
    EventQueue eq;
    nvram::VansSystem sys(eq, nvram::NvramConfig::optaneDefault());
    lens::Driver drv(sys);
    lens::PtrChaseParams pc;
    pc.regionBytes = region;
    pc.warmupLines = 3000;
    pc.measureLines = 1000;
    pc.seed = 7;
    pc.coverageWarm = true;
    lens::ptrChase(drv, pc);
    pc.writeMode = true;
    lens::ptrChase(drv, pc);
    drv.fence();
    drv.drain();
    return worldDigest(sys);
}

/**
 * Run @p insts on a CpuCore over a Table V Hierarchy in front of
 * @p mem. Hashes the CoreStats and the MetricsRegistry JSON (minus
 * `*.kernel`) of the world, the groups in @p extra, and the L1, L2,
 * LLC and TLB groups.
 */
std::uint64_t
coreRunDigest(MemorySystem &mem, std::vector<trace::TraceInst> insts,
              std::initializer_list<const StatGroup *> extra = {})
{
    cache::Hierarchy caches;
    cpu::CpuCore core(mem, caches);
    trace::VectorTraceSource src(std::move(insts));
    cpu::CoreStats st = core.run(src, 1u << 30);
    mem.drain();
    MetricsRegistry reg;
    mem.metricsInto(reg);
    for (const StatGroup *g : extra)
        reg.add(*g);
    reg.add(caches.l1().stats());
    reg.add(caches.l2().stats());
    reg.add(caches.llc().stats());
    reg.add(caches.tlb().stats());
    Fnv1a f;
    f.u64(st.elapsed);
    f.u64(st.instructions);
    f.f64(st.ipc);
    f.f64(st.llcMpki);
    f.f64(st.tlbMpki);
    f.u64(metricsDigest(reg));
    return f.value();
}

/**
 * Issue an NT store and @p readers NT loads of the same line in one
 * tick, and wait for all of them: the loads reach the iMC while the
 * store still holds the line in the WPQ.
 */
void
writeThenReadSameTick(MemorySystem &sys, Addr line, unsigned readers)
{
    unsigned completed = 0;
    RequestPool &pool = sys.pool();
    auto issue = [&](MemOp op) {
        RequestHandle h = sys.makeRequest(line, op);
        sys.request(h).onComplete = [&completed, &pool, h](Request &) {
            ++completed;
            pool.release(h);
        };
        sys.issue(h);
    };
    issue(MemOp::WriteNT);
    for (unsigned i = 0; i < readers; ++i)
        issue(MemOp::ReadNT);
    while (completed < readers + 1 && sys.eventQueue().step()) {
    }
    EXPECT_EQ(completed, readers + 1);
}

/** stateDigest() of a world, split where a speedup may move it. */
struct StateDigest
{
    /** The snapshot stream plus the dump() text of every group but
     *  `*.kernel`: what the model did. */
    std::uint64_t model;
    /** The dump() text of the `*.kernel` groups: the simulator's own
     *  event counts, which a change in event economy re-records. */
    std::uint64_t kernel;
};

/**
 * The quiescent @p sys's snapshot stream plus the dump() text of
 * every group it exports: the other two renderings of its counters.
 * Verified worlds also serialize their DDR4 protocol checkers, so the
 * stream depends on VANS_VERIFY.
 */
StateDigest
stateDigest(MemorySystem &sys)
{
    Fnv1a model, kernel;
    std::vector<std::uint8_t> stream = test::systemStream(sys);
    model.bytes(stream.data(), stream.size());
    MetricsRegistry reg;
    sys.metricsInto(reg);
    for (const StatGroup *g : reg.all()) {
        std::string text = g->dump();
        (isKernelGroup(*g) ? kernel : model).bytes(text.data(),
                                                   text.size());
    }
    return {model.value(), kernel.value()};
}

/** Expect @p sys's stateDigest() to be @p model and @p kernel. The
 *  model digest depends on VANS_VERIFY, the kernel digest does not. */
void
expectState(MemorySystem &sys, std::uint64_t model, std::uint64_t kernel)
{
    StateDigest d = stateDigest(sys);
    EXPECT_EQ(hex(d.model), hex(model)) << "model";
    EXPECT_EQ(hex(d.kernel), hex(kernel)) << "kernel";
}

/** Scalar @p name of @p g, which the world must have counted. */
void
expectCounted(const StatGroup &g, const char *name)
{
    EXPECT_GT(g.scalarValue(name), 0u) << g.name() << "." << name;
}

} // namespace

// ---- (a) DDR4 command streams ---------------------------------------

struct GoldenSweep
{
    const char *name;
    double writeFrac;
    std::uint64_t addrSpace;
    std::uint32_t size;
    std::uint64_t digest;
};

TEST(GoldenDigest, CheckerSweepCommandStreams)
{
    // The Traffic/CheckerSweep patterns of test_dram.cc.
    const GoldenSweep sweeps[] = {
        {"read_seq", 0.0, 1 << 16, 64, 0x0a6fd0970835fc6eull},
        {"read_rand", 0.0, 1u << 28, 64, 0xd937e7fb8920b816ull},
        {"write_rand", 1.0, 1u << 28, 64, 0x77bd85bee4cce82eull},
        {"mixed_rand", 0.5, 1u << 28, 64, 0xe194a6bbe284fd74ull},
        {"mixed_hot", 0.5, 1 << 14, 64, 0x001fdc64b1071126ull},
        {"bulk_256B", 0.5, 1u << 26, 256, 0x6b00a406e123fd2dull},
        {"bulk_4K", 0.3, 1u << 26, 4096, 0x022b986ee6a8c05full},
    };
    for (const GoldenSweep &s : sweeps) {
        std::uint64_t d =
            sweepDigest({DramTiming::ddr4_2666(), SchedPolicy::FRFCFS},
                        400, s.writeFrac, s.addrSpace, 11, s.size);
        EXPECT_EQ(hex(d), hex(s.digest)) << s.name;
    }
}

TEST(GoldenDigest, FcfsDdr3PcmCommandStreams)
{
    EXPECT_EQ(hex(sweepDigest({DramTiming::ddr4_2666(), SchedPolicy::FCFS},
                              300, 0.5, 1u << 26, 13, 64)),
              hex(0x1f9acc9463d99696ull));
    EXPECT_EQ(hex(sweepDigest({DramTiming::ddr3_1600(), SchedPolicy::FRFCFS},
                              300, 0.5, 1u << 26, 17, 64)),
              hex(0x60ce18ddca248148ull));
    EXPECT_EQ(hex(sweepDigest({DramTiming::pcmLike(), SchedPolicy::FRFCFS},
                              300, 0.5, 1u << 26, 19, 64)),
              hex(0x0d23078c4fac27b8ull));
}

TEST(GoldenDigest, FcfsMultiLineCommandStreams)
{
    // FCFS serves one line at a time in arrival order, so a multi-line
    // access holds every later one behind its last line.
    const Channel fcfs{DramTiming::ddr4_2666(), SchedPolicy::FCFS};
    EXPECT_EQ(hex(sweepDigest(fcfs, 300, 0.5, 1u << 26, 13, 256)),
              hex(0x8fa367154c6c3c1cull));
    EXPECT_EQ(hex(sweepDigest(fcfs, 200, 0.3, 1u << 26, 13, 4096)),
              hex(0xcc7b25b5c27efb02ull));
}

TEST(GoldenDigest, MultiRankCommandStreams)
{
    // 2 ranks (32 banks) under BankStripe, 64 B reads and 4 KB
    // writes: the write queue runs far past its 32-entry scheduler
    // window, and every erase inside the window pulls the next write
    // in.
    const Channel striped{DramTiming::ddr4_2666(), SchedPolicy::FRFCFS,
                          channelGeometry(2), MapScheme::BankStripe};
    EXPECT_EQ(hex(sweepDigest(striped, 400, 0.3, 1u << 28, 23, 64, 4096)),
              hex(0x05de9dc8e79c94b2ull));
    // 8 ranks: 128 banks, more than a 64-bit bank mask covers.
    const Channel wide{DramTiming::ddr4_2666(), SchedPolicy::FRFCFS,
                       channelGeometry(8)};
    EXPECT_EQ(hex(sweepDigest(wide, 400, 0.5, 1u << 28, 29, 64, 256)),
              hex(0x68f4774e65328e1cull));
}

TEST(GoldenDigest, StaggeredArrivalCommandStream)
{
    Staggered s;
    EXPECT_EQ(hex(s.run()), hex(0x24789b00fd290df1ull));
}

// ---- (b) World metrics ----------------------------------------------

TEST(GoldenDigest, AppDirectPointerChase)
{
    // Below the 16 KB RMW buffer, inside the 16 MB AIT buffer, and
    // past it.
    EXPECT_EQ(hex(appDirectChase(8 << 10)), hex(0xa1139899cfa2c310ull));
    EXPECT_EQ(hex(appDirectChase(1 << 20)), hex(0x1c48009cda2d6d30ull));
    EXPECT_EQ(hex(appDirectChase(32 << 20)), hex(0xf0ecc13a4412ba29ull));
}

TEST(GoldenDigest, MemoryModeWorld)
{
    setQuiet(true);
    nvram::NvramConfig cfg = nvram::NvramConfig::optaneDefault();
    cfg.mode = nvram::SystemMode::Memory;
    cfg.dcacheCapacity = 1 << 20;
    EventQueue eq;
    nvram::VansSystem sys(eq, cfg);
    lens::Driver drv(sys);
    lens::PtrChaseParams pc;
    pc.regionBytes = 2 << 20; // Twice the DRAM cache.
    pc.warmupLines = 3000;
    pc.measureLines = 1000;
    pc.seed = 9;
    lens::ptrChase(drv, pc);
    pc.writeMode = true;
    lens::ptrChase(drv, pc);
    drv.fence();
    drv.drain();
    EXPECT_EQ(hex(worldDigest(sys)), hex(0xf9cf038679498d27ull));
}

TEST(GoldenDigest, SixDimmBurst)
{
    // The BM_Vans6Dimm burst of bench_simperf.
    setQuiet(true);
    nvram::NvramConfig cfg = nvram::NvramConfig::optaneDefault();
    cfg.numDimms = 6;
    cfg.interleaved = true;
    EventQueue eq;
    nvram::VansSystem sys(eq, cfg, "vans6");
    lens::Driver drv(sys);
    for (unsigned rep = 0; rep < 3; ++rep)
        drv.writeBlock(static_cast<Addr>(rep) * 49152, 24576);
    std::vector<Addr> addrs;
    for (unsigned i = 0; i < 96; ++i)
        addrs.push_back(static_cast<Addr>(i) * 4096);
    drv.streamReads(addrs, 8);
    drv.fence();
    sys.drain();
    EXPECT_EQ(hex(worldDigest(sys)), hex(0x69b6cc10ad033426ull));
}

TEST(GoldenDigest, Ddr4MainMemoryRandomRead)
{
    setQuiet(true);
    EventQueue eq;
    baselines::DramMainMemory mem(
        eq, baselines::DramMainMemory::ddr4Params());
    lens::Driver drv(mem);
    Rng rng(31);
    std::vector<Addr> addrs;
    for (unsigned i = 0; i < 3000; ++i)
        addrs.push_back(rng.below(1u << 22) * 64);
    drv.streamReads(addrs, 10);
    drv.drain();
    MetricsRegistry reg;
    reg.add(mem.controller().stats());
    reg.add(mem.stats());
    EXPECT_EQ(hex(metricsDigest(reg)), hex(0xf64300a65752f5ccull));
}

// ---- (c) CPU core over the cache hierarchy ---------------------------

TEST(GoldenDigest, SpecTraceOnDdr4)
{
    setQuiet(true);
    EventQueue eq;
    baselines::DramMainMemory mem(
        eq, baselines::DramMainMemory::ddr4Params());
    // mcf's mix over a 3 MB footprint instead of 9.1 GB, so a short
    // run reuses lines and pages at every level: L1 and L2 victims
    // write back, the LLC hits, the STLB catches L1 TLB misses.
    workloads::SpecWorkload w = workloads::specWorkload("mcf", "2006");
    w.footprintBytes = 3 << 20;
    auto insts = workloads::generateSpecTrace(w, 40000, 32ull << 20, 3);
    EXPECT_EQ(hex(coreRunDigest(mem, std::move(insts),
                                {&mem.controller().stats(),
                                 &mem.stats()})),
              hex(0x0e281501fa933013ull));
}

TEST(GoldenDigest, RedisTraceOnVans)
{
    setQuiet(true);
    EventQueue eq;
    nvram::VansSystem sys(eq, nvram::NvramConfig::optaneDefault());
    workloads::CloudParams cp;
    cp.operations = 800;
    cp.seed = 5;
    EXPECT_EQ(hex(coreRunDigest(sys, workloads::redisTrace(cp))),
              hex(0xefe449d67784022cull));
}

// ---- (d) Counters no other world reaches -----------------------------
//
// Each world below drives counters that the worlds above leave at
// zero, and asserts it did, so a refactor of the stats layer is
// checked on every counter it owns.

TEST(GoldenDigest, AppDirectHazardsBypassAndWear)
{
    setQuiet(true);
    nvram::NvramConfig cfg = nvram::NvramConfig::optaneDefault();
    cfg.rmwEntries = 4;     // Staged writes fill the RMW buffer.
    cfg.aitBufEntries = 16; // The AIT buffer evicts from page 17 on.
    cfg.wearThreshold = 96; // Migrations within a short run.
    cfg.migrationUs = 5;
    EventQueue eq;
    nvram::VansSystem sys(eq, cfg);
    lens::Driver drv(sys);

    // An sfence after one 64B NT store cuts a partial WC buffer.
    drv.write(0);
    drv.sfence();
    // Loads of a line its store still holds in the WPQ.
    writeThenReadSameTick(sys, 1 << 20, 3);
    // A load of a line the LSQ still holds.
    drv.write(2 << 20);
    drv.idle(nsToTicks(150));
    drv.read(2 << 20);
    // A burst of stores to distinct RMW lines, then loads of others:
    // every RMW entry holds a staged write, so the loads bypass it.
    std::vector<Addr> lines;
    for (unsigned i = 0; i < 32; ++i)
        lines.push_back((3 << 20) + static_cast<Addr>(i) * 256);
    drv.streamWrites(lines, 16);
    for (unsigned i = 0; i < 8; ++i)
        drv.read((4 << 20) + static_cast<Addr>(i) * 256);
    // Loads over 48 pages: the 16-page AIT buffer evicts.
    std::vector<Addr> pages;
    for (unsigned i = 0; i < 48; ++i)
        pages.push_back((8 << 20) + static_cast<Addr>(i) * 4096);
    drv.streamReads(pages, 4);
    // Overwrites of one 256B line: the block migrates, and the
    // stores that land during a migration stall.
    lens::overwrite(drv, 16 << 20, 256, 200);
    drv.fence();
    drv.drain();

    nvram::NvramDimm &d = sys.dimm(0);
    expectCounted(sys.imc().stats(), "sfences");
    expectCounted(sys.imc().stats(), "wc_partial_drains");
    expectCounted(sys.imc().channelStats(0), "wpq_read_hazards");
    expectCounted(d.lsq().stats(), "raw_hazards");
    expectCounted(d.rmw().stats(), "read_bypass");
    expectCounted(d.ait().stats(), "buf_evictions");
    expectCounted(d.ait().stats(), "migration_stalls");
    expectCounted(d.ait().wearLeveler().stats(), "migrations");
    EXPECT_EQ(hex(worldDigest(sys)), hex(0xd6dcabb8284f6b89ull));
    expectState(sys,
                verify::envEnabled() ? 0xd688841a48d1df64ull
                                     : 0xdddcc8972e73a33dull,
                // Re-recorded: one DRAM data-completion event per
                // access, not per CAS.
                0x3d913276c7befa60ull);
}

TEST(GoldenDigest, MemoryModeWriteBackAndFlush)
{
    setQuiet(true);
    nvram::NvramConfig cfg = nvram::NvramConfig::optaneDefault();
    cfg.mode = nvram::SystemMode::Memory;
    cfg.dcacheCapacity = 64 << 10;
    EventQueue eq;
    nvram::VansSystem sys(eq, cfg);
    lens::Driver drv(sys);

    // Plain stores allocate write-back: first misses, then hits.
    std::vector<Addr> lines;
    for (unsigned i = 0; i < 64; ++i)
        lines.push_back(static_cast<Addr>(i) * 64);
    drv.streamOps(lines, MemOp::Write, 8, nsToTicks(6));
    drv.streamOps(lines, MemOp::Write, 8, nsToTicks(6));
    // Loads of conflicting lines one cache capacity up evict the
    // dirty residents; two loads of each line in flight at once
    // share one fetch.
    std::vector<Addr> conflicts;
    for (unsigned i = 0; i < 32; ++i) {
        Addr a = (64 << 10) + static_cast<Addr>(i) * 64;
        conflicts.push_back(a);
        conflicts.push_back(a);
    }
    drv.streamReads(conflicts, 8);
    // clflushopt of a cached line drops it.
    drv.read(1 << 20);
    drv.clflushopt(1 << 20);
    drv.fence();
    drv.drain();

    const StatGroup &dc = sys.imc().dramCache(0)->stats();
    for (const char *name : {"mshr_merges", "dirty_evicts", "invalidates",
                             "wb_write_hits", "wb_write_misses"})
        expectCounted(dc, name);
    EXPECT_EQ(hex(worldDigest(sys)), hex(0x0d255343d0b04078ull));
    expectState(sys,
                verify::envEnabled() ? 0x63334d30883522bfull
                                     : 0x037e9fdd533c6e03ull,
                // Re-recorded: one DRAM data-completion event per
                // access, not per CAS.
                0xc2d5baff4295e977ull);
}

// The snapshot streams of the round-trip test's worlds: a second
// channel, a DRAM cache, full RMW and AIT buffers, wear and ADR
// versions. Verified worlds also serialize their DDR4 checkers.
TEST(GoldenDigest, SnapshotStreams)
{
    setQuiet(true);
    const std::uint64_t verified[] = {
        0x0169b351039a2ac0ull, 0xf3ee30b647922ce0ull,
        0x040436b2b6c03759ull, 0x357299f95b985311ull,
        0xaaf0c3e283e79a57ull};
    const std::uint64_t unverified[] = {
        0x087ebbd6294586baull, 0x6d7ad60fdca6f0d5ull,
        0x9c99a433bc8ede16ull, 0x5856cde68a43c205ull,
        0xd93910a02fdf6a01ull};
    std::vector<test::SnapshotWorld> worlds = test::snapshotWorlds();
    ASSERT_EQ(worlds.size(), std::size(verified));
    for (std::size_t i = 0; i < worlds.size(); ++i) {
        test::VansFixture f(worlds[i].cfg);
        if (worlds[i].persist)
            f.sys.enablePersistTracking();
        test::warmForSnapshot(f.drv);
        std::vector<std::uint8_t> stream = test::systemStream(f.sys);
        Fnv1a h;
        h.bytes(stream.data(), stream.size());
        EXPECT_EQ(hex(h.value()), hex(verify::envEnabled()
                                          ? verified[i]
                                          : unverified[i]))
            << worlds[i].name << ", " << stream.size() << " B";
    }
}

// quiescent() sampled after every issue of 60 seeded bursts of mixed
// loads, stores, flushes and fences in each snapshot world, and
// between bursts at a seeded number of fixed ticks 50 ns apart. It
// gates both the drain and every capture, so a member it stops
// testing flips samples here: dropping the iMC's in-flight arrival
// count moves every world. The stream is paced in simulated time,
// not in events, so the samples and the issue ticks depend on the
// seed alone: a change that only saves events keeps every digest,
// and a component that acts past a runUntil limit moves it.
TEST(GoldenDigest, QuiescenceTrace)
{
    setQuiet(true);
    const std::uint64_t expected[] = {
        0xa56334fb64d584e4ull, 0xf03eeb360d8f52a4ull,
        0x0cbdc61e23145ca5ull, 0x79cfe7716a64b8a4ull,
        0xa56334fb64d584e4ull};
    const MemOp ops[] = {MemOp::ReadNT, MemOp::WriteNT, MemOp::Write,
                         MemOp::Clwb, MemOp::Read};
    const Tick gap = nsToTicks(50);
    std::vector<test::SnapshotWorld> worlds = test::snapshotWorlds();
    ASSERT_EQ(worlds.size(), std::size(expected));
    for (std::size_t i = 0; i < worlds.size(); ++i) {
        EventQueue eq;
        nvram::VansSystem sys(eq, worlds[i].cfg);
        if (worlds[i].persist)
            sys.enablePersistTracking();
        RequestPool &pool = sys.pool();
        Rng rng(29);
        Fnv1a f;
        unsigned quiet = 0;
        unsigned samples = 0;
        auto sample = [&] {
            bool q = sys.quiescent();
            f.u64(q);
            quiet += q;
            ++samples;
        };
        Tick at = 0;
        for (int burst = 0; burst < 60; ++burst) {
            for (std::uint64_t n = 1 + rng.below(8); n > 0; --n) {
                MemOp op = ops[rng.below(std::size(ops))];
                std::uint32_t size = rng.below(2) ? 256 : 64;
                Addr addr =
                    rng.below(8u << 20) & ~static_cast<Addr>(size - 1);
                if (rng.below(16) == 0) {
                    op = rng.below(2) ? MemOp::Fence : MemOp::Sfence;
                    addr = 0;
                    size = 0;
                }
                RequestHandle h = sys.makeRequest(addr, op, size);
                sys.request(h).onComplete = [&pool, h](Request &) {
                    pool.release(h);
                };
                sys.issue(h);
                sample();
            }
            // The no-op lands the clock on the sample tick even when
            // the model has nothing pending.
            for (std::uint64_t s = rng.below(160); s > 0; --s) {
                at += gap;
                eq.schedule(at, [] {});
                eq.runUntil(at);
                sample();
            }
        }
        sys.drain();
        EXPECT_GT(quiet, 0u) << worlds[i].name;
        EXPECT_LT(quiet, samples) << worlds[i].name;
        EXPECT_EQ(hex(f.value()), hex(expected[i]))
            << worlds[i].name << ": " << quiet << " of " << samples
            << " samples quiescent";
    }
}

TEST(GoldenDigest, CoreWritebacksOnDdr4)
{
    setQuiet(true);
    EventQueue eq;
    baselines::DramMainMemory mem(
        eq, baselines::DramMainMemory::ddr4Params());
    // A 256 KB LLC under a 3 MB footprint: dirty lines leave it.
    cache::HierarchyParams hp;
    hp.l2.sizeBytes = 128 << 10;
    hp.l3.sizeBytes = 256 << 10;
    cache::Hierarchy caches(hp);
    cpu::CpuCore core(mem, caches);
    workloads::SpecWorkload w = workloads::specWorkload("lbm", "2006");
    w.footprintBytes = 3 << 20;
    trace::VectorTraceSource src(
        workloads::generateSpecTrace(w, 30000, 32ull << 20, 7));
    cpu::CoreStats st = core.run(src, 1u << 30);
    mem.drain();

    expectCounted(caches.llc().stats(), "writebacks");
    expectCounted(mem.stats(), "writes");
    MetricsRegistry reg;
    reg.add(mem.controller().stats());
    reg.add(mem.stats());
    reg.add(caches.l1().stats());
    reg.add(caches.l2().stats());
    reg.add(caches.llc().stats());
    reg.add(caches.tlb().stats());
    Fnv1a f;
    f.u64(st.elapsed);
    f.u64(st.instructions);
    f.u64(metricsDigest(reg));
    EXPECT_EQ(hex(f.value()), hex(0x63942eee741c49d0ull));
}

TEST(GoldenDigest, LazyCacheAndPreTranslationOnVans)
{
    setQuiet(true);
    nvram::NvramConfig cfg = nvram::NvramConfig::optaneDefault();
    cfg.wearThreshold = 200;
    EventQueue eq;
    nvram::VansSystem sys(eq, cfg);
    opt::LazyCacheParams lp;
    lp.lz1Bytes = 512; // Small enough to write back.
    lp.lz2Bytes = 512;
    opt::LazyCache lazy(lp);
    lazy.attach(sys.dimm(0));
    {
        // Overwrites migrate a block; later stores to it are absorbed.
        lens::Driver drv(sys);
        lens::overwrite(drv, 0, 256, 400);
        for (unsigned i = 0; i < 8; ++i)
            lens::overwrite(drv, static_cast<Addr>(i) * 256, 256, 4);
        drv.fence();
    }
    cache::Hierarchy caches;
    cpu::CpuCore core(sys, caches);
    opt::PreTranslation pt;
    pt.attach(core);
    workloads::CloudParams p;
    // 2048 nodes, more than the STLB holds, traversed 1.3 times: the
    // second pass misses the TLB and takes delivered translations.
    p.operations = 2600;
    p.footprintBytes = 8 << 20;
    p.preTranslationHints = true;
    trace::VectorTraceSource src(workloads::linkedListTrace(p));
    cpu::CoreStats st = core.run(src, 1u << 30);
    sys.drain();

    expectCounted(sys.dimm(0).ait().stats(), "lazy_absorbed");
    expectCounted(caches.tlb().stats(), "pretranslation_installs");
    for (const char *name : {"migration_updates", "absorbed", "writebacks"})
        expectCounted(lazy.stats(), name);
    for (const char *name :
         {"table_updates", "misses", "stale", "deliveries"})
        expectCounted(pt.stats(), name);
    MetricsRegistry reg;
    sys.metricsInto(reg);
    reg.add(lazy.stats());
    reg.add(pt.stats());
    reg.add(caches.tlb().stats());
    Fnv1a f;
    f.u64(st.elapsed);
    f.u64(st.instructions);
    f.u64(metricsDigest(reg));
    EXPECT_EQ(hex(f.value()), hex(0xf9b3596ecab86b2full));
}
