/**
 * @file
 * Tests for the warm-world snapshot/fork subsystem: the typed state
 * stream, the flat LRU backing the AIT, kernel-counter snapshots,
 * and -- the core guarantee -- fork fidelity: a world restored from
 * a WorldSnapshot runs tick-for-tick identically to a world that
 * re-ran the warm-up from scratch, across thread counts.
 */

#include <gtest/gtest.h>

#include <list>
#include <memory>
#include <set>
#include <vector>

#include "baselines/dram_system.hh"
#include "common/crash.hh"
#include "common/flat_lru.hh"
#include "common/inplace_function.hh"
#include "common/rng.hh"
#include "common/snapshot.hh"
#include "common/sweep.hh"
#include "lens/driver.hh"
#include "nvram/vans_system.hh"
#include "tests/test_util.hh"

using namespace vans;

// ---- Typed state stream --------------------------------------------

TEST(SnapshotStream, RoundtripTypedValues)
{
    snapshot::StateSink sink;
    sink.tag("hdr");
    sink.u64(0xdeadbeefULL);
    sink.f64(3.25);
    sink.boolean(true);
    sink.boolean(false);
    sink.str("component-name");
    sink.tag("end");

    auto bytes = sink.take();
    snapshot::StateSource src(bytes);
    src.tag("hdr");
    EXPECT_EQ(src.u64(), 0xdeadbeefULL);
    EXPECT_EQ(src.f64(), 3.25);
    EXPECT_TRUE(src.boolean());
    EXPECT_FALSE(src.boolean());
    EXPECT_EQ(src.str(), "component-name");
    src.tag("end");
    EXPECT_TRUE(src.exhausted());
}

TEST(SnapshotStreamDeathTest, TypeMismatchPanics)
{
    setQuiet(true);
    snapshot::StateSink sink;
    sink.f64(1.0);
    auto bytes = sink.take();
    snapshot::StateSource src(bytes);
    EXPECT_DEATH(src.u64(), "type mismatch");
}

TEST(SnapshotStreamDeathTest, TagMismatchPanics)
{
    setQuiet(true);
    snapshot::StateSink sink;
    sink.tag("ait");
    auto bytes = sink.take();
    snapshot::StateSource src(bytes);
    EXPECT_DEATH(src.tag("rmw"), "tag mismatch");
}

TEST(SnapshotStreamDeathTest, TruncatedStreamPanics)
{
    setQuiet(true);
    std::vector<std::uint8_t> empty;
    snapshot::StateSource src(empty);
    EXPECT_DEATH(src.u64(), "exhausted");
}

// ---- FlatLru vs a reference model ----------------------------------

namespace
{

/** Obviously-correct LRU: std::list (MRU first) + membership set. */
struct RefLru
{
    explicit RefLru(std::size_t cap) : capacity(cap) {}

    bool
    touch(Addr key)
    {
        for (auto it = order.begin(); it != order.end(); ++it) {
            if (*it == key) {
                order.erase(it);
                order.push_front(key);
                return true;
            }
        }
        return false;
    }

    bool
    insert(Addr key, Addr &evicted)
    {
        order.push_front(key);
        if (order.size() > capacity) {
            evicted = order.back();
            order.pop_back();
            return true;
        }
        return false;
    }

    void
    erase(Addr key)
    {
        order.remove(key);
    }

    std::size_t capacity;
    std::list<Addr> order;
};

} // namespace

TEST(FlatLruTest, FuzzAgainstReferenceModel)
{
    constexpr std::size_t cap = 32;
    FlatLru lru(cap);
    RefLru ref(cap);
    Rng rng(20240806);

    for (int step = 0; step < 20000; ++step) {
        Addr key = rng.below(96) * 64; // Collisions on purpose.
        switch (rng.below(4)) {
        case 0:
        case 1: { // Lookup-or-insert, the AIT access pattern.
            bool hit = lru.touch(key);
            bool ref_hit = ref.touch(key);
            ASSERT_EQ(hit, ref_hit) << "step " << step;
            if (!hit) {
                Addr ev = 0, ref_ev = 0;
                bool evicted = lru.insert(key, ev);
                bool ref_evicted = ref.insert(key, ref_ev);
                ASSERT_EQ(evicted, ref_evicted) << "step " << step;
                if (evicted) {
                    ASSERT_EQ(ev, ref_ev) << "step " << step;
                }
            }
            break;
        }
        case 2: // Erase (present or not).
            if (lru.contains(key)) {
                lru.erase(key);
                ref.erase(key);
            }
            break;
        case 3: { // Full order audit.
            std::vector<Addr> got;
            lru.forEachMruToLru(
                [&got](Addr a) { got.push_back(a); });
            std::vector<Addr> want(ref.order.begin(),
                                   ref.order.end());
            ASSERT_EQ(got, want) << "step " << step;
            break;
        }
        }
        ASSERT_EQ(lru.size(), ref.order.size());
        if (!ref.order.empty()) {
            ASSERT_EQ(lru.lruKey(), ref.order.back());
        }
    }
}

TEST(FlatLruTest, ClearEmptiesEverything)
{
    FlatLru lru(8);
    Addr ev = 0;
    for (Addr a = 0; a < 8; ++a)
        lru.insert(a, ev);
    EXPECT_TRUE(lru.full());
    lru.clear();
    EXPECT_EQ(lru.size(), 0u);
    EXPECT_FALSE(lru.contains(3));
}

// ---- InplaceFunction basics (the event-path callback type) ---------

TEST(InplaceFunctionTest, MoveOnlyCaptureInvokes)
{
    auto value = std::make_unique<int>(41);
    InplaceFunction<int()> fn(
        [v = std::move(value)]() { return *v + 1; });
    EXPECT_TRUE(static_cast<bool>(fn));
    EXPECT_EQ(fn(), 42);

    InplaceFunction<int()> moved(std::move(fn));
    EXPECT_FALSE(static_cast<bool>(fn));
    EXPECT_EQ(moved(), 42);
}

TEST(InplaceFunctionTest, ReassignmentReplacesTarget)
{
    InplaceFunction<int(int)> fn([](int x) { return x * 2; });
    EXPECT_EQ(fn(21), 42);
    fn = [](int x) { return x + 1; };
    EXPECT_EQ(fn(41), 42);
    fn = nullptr;
    EXPECT_FALSE(static_cast<bool>(fn));
}

// ---- EventQueue counter snapshot -----------------------------------

TEST(EventQueueSnapshot, CountersRoundtrip)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    for (int i = 0; i < 20; ++i)
        eq.schedule(static_cast<Tick>(i) * 10,
                    [&fired] { ++fired; });
    eq.run();
    ASSERT_EQ(fired, 20u);

    snapshot::StateSink sink;
    snapshot::Archive capture(sink);
    eq.serialize(capture);
    auto bytes = sink.take();

    EventQueue fresh;
    snapshot::StateSource src(bytes);
    snapshot::Archive restore(src);
    fresh.serialize(restore);
    EXPECT_TRUE(src.exhausted());
    EXPECT_EQ(fresh.curTick(), eq.curTick());
    EXPECT_EQ(fresh.executed(), eq.executed());

    // The restored queue keeps ticking forward from the captured
    // point: scheduling in its past must still panic.
    bool ok = false;
    fresh.scheduleAfter(5, [&ok] { ok = true; });
    fresh.run();
    EXPECT_TRUE(ok);
}

// ---- Fork fidelity --------------------------------------------------

namespace
{

SystemFactory
smallFactory()
{
    return [](EventQueue &eq) {
        return std::make_unique<nvram::VansSystem>(
            eq, vans::test::smallConfig());
    };
}

/** Deterministic mixed warm-up: reads and writes over 1MB. */
void
warmWorkload(MemorySystem &sys)
{
    lens::Driver drv(sys);
    Rng rng(7);
    for (int n = 0; n < 250; ++n) {
        Addr a = rng.below(1u << 20) & ~static_cast<Addr>(63);
        if (rng.below(3) == 0)
            drv.write(a);
        else
            drv.read(a);
    }
    drv.fence();
}

/** Per-point measurement: every op latency plus the final tick. */
struct PointTrace
{
    std::vector<Tick> latencies;
    Tick endTick = 0;

    bool
    operator==(const PointTrace &o) const
    {
        return endTick == o.endTick && latencies == o.latencies;
    }
};

PointTrace
pointWorkload(MemorySystem &sys, std::size_t i)
{
    lens::Driver drv(sys);
    Rng rng(SweepRunner::pointSeed(99, i));
    PointTrace t;
    for (int n = 0; n < 120; ++n) {
        Addr a = rng.below(1u << 20) & ~static_cast<Addr>(63);
        t.latencies.push_back(rng.below(2) ? drv.write(a)
                                           : drv.read(a));
    }
    drv.fence();
    t.endTick = sys.eventQueue().curTick();
    return t;
}

/** The serial cold reference for point @p i: fresh world, full
 *  re-warm to quiescence, then the point body. */
PointTrace
coldReference(const SystemFactory &factory, std::size_t i)
{
    EventQueue eq;
    auto sys = factory(eq);
    warmWorkload(*sys);
    sys->drain();
    return pointWorkload(*sys, i);
}

} // namespace

TEST(ForkFidelity, ForkedPointsMatchColdReferenceTickForTick)
{
    setQuiet(true);
    auto factory = smallFactory();
    SweepRunner serial(1);
    auto ws = serial.warmOnce(factory, warmWorkload);
    ASSERT_TRUE(ws.snap.valid());

    auto forked = serial.mapForked<PointTrace>(
        ws, 4,
        [](MemorySystem &sys, std::size_t i) {
            return pointWorkload(sys, i);
        });

    for (std::size_t i = 0; i < forked.size(); ++i) {
        PointTrace ref = coldReference(factory, i);
        ASSERT_EQ(forked[i].latencies.size(), ref.latencies.size());
        for (std::size_t n = 0; n < ref.latencies.size(); ++n) {
            ASSERT_EQ(forked[i].latencies[n], ref.latencies[n])
                << "point " << i << " op " << n;
        }
        EXPECT_EQ(forked[i].endTick, ref.endTick) << "point " << i;
    }
}

TEST(ForkFidelity, RestoredStatsIdenticalAfterIdenticalRun)
{
    setQuiet(true);
    auto factory = smallFactory();

    // Reference: cold world, warm, quiesce, point.
    EventQueue ref_eq;
    auto ref_sys = factory(ref_eq);
    warmWorkload(*ref_sys);
    ref_sys->drain();

    // Fork: capture the same warm state from another world.
    EventQueue proto_eq;
    auto proto = factory(proto_eq);
    warmWorkload(*proto);
    proto->drain();
    auto snap = snapshot::WorldSnapshot::capture(proto_eq, *proto);
    EXPECT_GT(snap.sizeBytes(), 0u);

    EventQueue fork_eq;
    auto fork_sys = factory(fork_eq);
    snap.restoreInto(fork_eq, *fork_sys);
    EXPECT_EQ(fork_eq.curTick(), ref_eq.curTick());

    pointWorkload(*ref_sys, 0);
    pointWorkload(*fork_sys, 0);

    auto &ref_vans = static_cast<nvram::VansSystem &>(*ref_sys);
    auto &fork_vans = static_cast<nvram::VansSystem &>(*fork_sys);
    EXPECT_TRUE(fork_vans.dimm().ait().stats().identicalTo(
        ref_vans.dimm().ait().stats()));
    EXPECT_TRUE(fork_vans.dimm().rmw().stats().identicalTo(
        ref_vans.dimm().rmw().stats()));
    EXPECT_TRUE(fork_vans.dimm().lsq().stats().identicalTo(
        ref_vans.dimm().lsq().stats()));
    EXPECT_TRUE(fork_vans.imc().stats().identicalTo(
        ref_vans.imc().stats()));
}

TEST(ForkFidelity, MapFromWarmIdenticalAcrossThreadCounts)
{
    setQuiet(true);
    auto factory = smallFactory();
    auto run = [&](unsigned threads) {
        return SweepRunner(threads).mapFromWarm<PointTrace>(
            factory, warmWorkload, 8,
            [](MemorySystem &sys, std::size_t i) {
                return pointWorkload(sys, i);
            });
    };
    auto serial = run(1);
    auto par = run(4);
    ASSERT_EQ(serial.size(), par.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_TRUE(serial[i] == par[i]) << "point " << i;
}

// ---- Quiescence drain ----------------------------------------------

// Regression for the refresh re-arm hang: 6 records x 64B = 384B =
// 1.5 RMW lines, so the trailing partial line forces a
// read-modify-write fill that touches the on-DIMM DRAM -- whose
// tREFI refresh wakeup then re-arms forever. Any drain loop keyed on
// event-queue emptiness spins for eternity on this shape (the
// pre-fix failure mode: 768B worked only because 3 *full* RMW lines
// never touch DRAM). MemorySystem::drain keys on the quiescent()
// state predicate and must return promptly.
TEST(QuiescenceDrain, PartialRmwLineWorkloadDrainsWithoutTimeout)
{
    vans::test::VansFixture f(vans::test::smallConfig());
    for (unsigned i = 0; i < 6; ++i) {
        Addr a = static_cast<Addr>(i) * cacheLineSize;
        f.drv.write(a); // NT store: completes at ADR acceptance.
        f.drv.sfence();
    }
    // Downstream media/RMW traffic is still in flight here; idle the
    // world out through the shared helper (bounded: a hang fails the
    // REQUIRE instead of wedging ctest).
    f.drv.drain();
    EXPECT_TRUE(f.sys.quiescent());
    // The pair that encodes the bug: the world is quiescent, yet its
    // queue is NOT empty -- the refresh timer stays armed. Emptiness
    // is never a termination condition.
    EXPECT_FALSE(f.eq.empty());
}

TEST(QuiescenceDrain, CachedPersistShapeAlsoDrains)
{
    // The store+clwb+sfence spelling of the same 6-record shape,
    // through the block helper (clwb every line, then sfence).
    vans::test::VansFixture f(vans::test::smallConfig());
    f.drv.persistBlockCached(0, 6 * cacheLineSize);
    f.sys.drain();
    EXPECT_TRUE(f.sys.quiescent());
    EXPECT_FALSE(f.eq.empty());
    // Draining an already-quiescent world is a cheap no-op.
    f.sys.drain();
    EXPECT_TRUE(f.sys.quiescent());
}

TEST(ForkFidelityDeathTest, CapturingNonQuiescentWorldPanics)
{
    setQuiet(true);
    EventQueue eq;
    nvram::VansSystem sys(eq, vans::test::smallConfig());
    // Issue a request and do NOT step the queue: in flight.
    sys.issue(sys.makeRequest(0, MemOp::ReadNT));
    ASSERT_FALSE(sys.quiescent());
    EXPECT_DEATH(snapshot::WorldSnapshot::capture(eq, sys),
                 "non-quiescent");
}

// There is no cold fallback: warming a system without snapshot
// support for a fork fails at capture, naming the system.
TEST(ForkFidelityDeathTest, WarmingSystemWithoutSnapshotSupportFails)
{
    setQuiet(true);
    SystemFactory factory = [](EventQueue &eq) {
        return std::make_unique<baselines::DramMainMemory>(
            eq, baselines::DramSystemParams{}, "ddr4-main");
    };
    EXPECT_DEATH(SweepRunner(1).warmOnce(factory, [](MemorySystem &) {}),
                 "snapshot of a system without snapshot support "
                 "\\(ddr4-main\\)");
}

TEST(ForkFidelityDeathTest, RestoreIntoUsedWorldPanics)
{
    setQuiet(true);
    auto factory = smallFactory();
    EventQueue proto_eq;
    auto proto = factory(proto_eq);
    warmWorkload(*proto);
    proto->drain();
    auto snap = snapshot::WorldSnapshot::capture(proto_eq, *proto);

    // Restoring into a world that has already simulated must panic:
    // the kernel refuses to rewind a non-fresh queue.
    EXPECT_DEATH(
        {
            EventQueue eq;
            auto sys = factory(eq);
            lens::Driver drv(*sys);
            drv.read(64);
            snap.restoreInto(eq, *sys);
        },
        "non-fresh queue");
}

TEST(ForkFidelityDeathTest, RestoreIntoDifferentShapePanics)
{
    setQuiet(true);
    nvram::NvramConfig cfg = vans::test::smallConfig();
    vans::test::VansFixture proto(cfg);
    warmWorkload(proto.sys);
    proto.sys.drain();
    auto snap = snapshot::WorldSnapshot::capture(proto.eq, proto.sys);

    nvram::NvramConfig two = cfg;
    two.numDimms = 2;
    EXPECT_DEATH(
        {
            vans::test::VansFixture f(two);
            snap.restoreInto(f.eq, f.sys);
        },
        "channel count mismatch");
    nvram::NvramConfig wide = cfg;
    wide.mediaPartitions *= 2;
    EXPECT_DEATH(
        {
            vans::test::VansFixture f(wide);
            snap.restoreInto(f.eq, f.sys);
        },
        "partition count mismatch");
}

TEST(ForkFidelityDeathTest, RestoreIntoSmallerBuffersPanics)
{
    setQuiet(true);
    nvram::NvramConfig cfg = vans::test::smallConfig();
    vans::test::VansFixture proto(cfg);
    vans::test::warmForSnapshot(proto.drv);
    auto snap = snapshot::WorldSnapshot::capture(proto.eq, proto.sys);

    // The warm-up leaves all 64 AIT-buffer pages and 15 of the 16
    // RMW entries in use: neither fits a smaller buffer.
    nvram::NvramConfig pages = cfg;
    pages.aitBufEntries = 16;
    EXPECT_DEATH(
        {
            vans::test::VansFixture f(pages);
            snap.restoreInto(f.eq, f.sys);
        },
        "64 pages, more than ait_buf_entries \\(16\\)");
    nvram::NvramConfig entries = cfg;
    entries.rmwEntries = 4;
    EXPECT_DEATH(
        {
            vans::test::VansFixture f(entries);
            snap.restoreInto(f.eq, f.sys);
        },
        "15 RMW entries, more than rmw_entries \\(4\\)");
}

// ---- Round trip and persist-tracking forks --------------------------

TEST(SnapshotRoundTrip, RestoredWorldCapturesTheSameStream)
{
    for (const vans::test::SnapshotWorld &w :
         vans::test::snapshotWorlds()) {
        SCOPED_TRACE(w.name);
        vans::test::VansFixture warm(w.cfg);
        if (w.persist)
            warm.sys.enablePersistTracking();
        vans::test::warmForSnapshot(warm.drv);
        auto snap = snapshot::WorldSnapshot::capture(warm.eq, warm.sys);

        vans::test::VansFixture fork(w.cfg);
        snap.restoreInto(fork.eq, fork.sys);
        std::vector<std::uint8_t> captured =
            vans::test::systemStream(warm.sys);
        EXPECT_GT(captured.size(), 0u);
        EXPECT_TRUE(vans::test::systemStream(fork.sys) == captured);
    }
}

namespace
{

/** Issue 64 NT stores at once, run 400 ns and cut power. */
persist::MediaImage
storeAndCut(vans::test::VansFixture &f)
{
    for (unsigned i = 0; i < 64; ++i) {
        RequestHandle h = f.sys.makeRequest(
            (24u << 20) + i * cacheLineSize, MemOp::WriteNT);
        f.sys.request(h).onComplete = [p = &f.sys.pool(),
                                       h](Request &) { p->release(h); };
        f.sys.issue(h);
    }
    f.eq.runUntil(f.eq.curTick() + nsToTicks(400));
    persist::MediaImage img;
    f.sys.powerFail(img);
    return img;
}

} // namespace

TEST(ForkFidelity, PersistTrackingForkCutsToTheSameImage)
{
    nvram::NvramConfig cfg = vans::test::smallConfig();
    vans::test::VansFixture cold(cfg);
    cold.sys.enablePersistTracking();
    vans::test::warmForSnapshot(cold.drv);

    vans::test::VansFixture proto(cfg);
    proto.sys.enablePersistTracking();
    vans::test::warmForSnapshot(proto.drv);
    vans::test::VansFixture fork(cfg);
    snapshot::WorldSnapshot::capture(proto.eq, proto.sys)
        .restoreInto(fork.eq, fork.sys);
    ASSERT_EQ(fork.eq.curTick(), cold.eq.curTick());

    persist::MediaImage want = storeAndCut(cold);
    persist::MediaImage got = storeAndCut(fork);
    EXPECT_GT(want.lineCount(), 64u);
    EXPECT_TRUE(got == want) << got.lineCount() << " lines vs "
                             << want.lineCount();
}
