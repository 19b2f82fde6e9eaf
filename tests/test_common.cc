/**
 * @file
 * Unit tests for the common substrate: event queue, config, curves,
 * stats, RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <tuple>

#include "common/ascii_chart.hh"
#include "common/curve.hh"
#include "common/event_queue.hh"
#include "common/inplace_function.hh"
#include "common/metrics.hh"
#include "common/rng.hh"
#include "common/snapshot.hh"
#include "common/stats.hh"
#include "nvram/nvram_config.hh"
#include "workloads/zipfian.hh"

using namespace vans;

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NestedScheduling)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] {
        ++fired;
        eq.scheduleAfter(5, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.curTick(), 15u);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(5, [] {}), "past");
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    eq.runUntil(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, StepCountsExecutions)
{
    EventQueue eq;
    eq.schedule(1, [] {});
    eq.schedule(2, [] {});
    EXPECT_TRUE(eq.step());
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
    EXPECT_EQ(eq.executed(), 2u);
}

TEST(EventQueue, RunUntilFiresEventExactlyAtLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(50, [&] { ++fired; });
    eq.schedule(51, [&] { ++fired; });
    eq.runUntil(50);
    EXPECT_EQ(fired, 1) << "event at the limit tick must fire";
    EXPECT_EQ(eq.curTick(), 50u);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, KernelCountersTrackLoad)
{
    EventQueue eq;
    for (Tick t = 1; t <= 10; ++t)
        eq.schedule(t, [] {});
    EXPECT_EQ(eq.scheduled(), 10u);
    EXPECT_EQ(eq.peakPending(), 10u);
    EXPECT_EQ(eq.heapCallbacks(), 0u)
        << "small captures must not allocate";
    eq.run();
    EXPECT_EQ(eq.executed(), 10u);
    EXPECT_EQ(eq.peakPending(), 10u);

    struct Big
    {
        char blob[2 * InplaceCallback::inlineCapacity] = {};
    } big;
    eq.schedule(eq.curTick() + 1, [big] { (void)big; });
    EXPECT_EQ(eq.heapCallbacks(), 1u);
    eq.run();

    StatGroup sg("kernel");
    eq.statsInto(sg);
    EXPECT_EQ(sg.scalarValue("events_scheduled"), 11u);
    EXPECT_EQ(sg.scalarValue("events_executed"), 11u);
    EXPECT_EQ(sg.scalarValue("peak_pending"), 10u);
    EXPECT_EQ(sg.scalarValue("callback_heap_spills"), 1u);
}

namespace
{

/** Ticks per kernel bucket boundary the delays below straddle. */
constexpr Tick bucketTicks = 1024;

/**
 * A delay from the classes that straddle an event kernel's internal
 * boundaries: the same tick; one tick and either side of a 1024-tick
 * bucket; 1-300 ns; the horizon of a wheel of 2^10 or of 2^13 such
 * buckets, -1/0/+1 tick; and 5-100 us.
 */
Tick
boundaryDelay(Rng &rng)
{
    switch (rng.below(8)) {
      case 0:
        return 0;
      case 1: {
        constexpr Tick near[] = {1, bucketTicks - 1, bucketTicks,
                                 bucketTicks + 1};
        return near[rng.below(4)];
      }
      case 2:
      case 3:
      case 4:
        return nsToTicks(1) + rng.below(nsToTicks(299) + 1);
      case 5: {
        Tick horizon = bucketTicks << (rng.below(2) ? 13 : 10);
        return horizon - 1 + rng.below(3);
      }
      default:
        return nsToTicks(5000) + rng.below(nsToTicks(95000) + 1);
    }
}

/** The ordering contract spelled out: pending events run strictly
 *  by (when, seq), seq counting every schedule call. */
struct ReferenceQueue
{
    Tick now = 0;
    std::uint64_t seq = 0;
    std::uint64_t executed = 0;
    std::set<std::tuple<Tick, std::uint64_t, unsigned>> pending;

    void
    schedule(Tick when, unsigned id)
    {
        pending.emplace(when, seq++, id);
    }

    unsigned
    pop()
    {
        auto [when, s, id] = *pending.begin();
        (void)s;
        pending.erase(pending.begin());
        now = when;
        ++executed;
        return id;
    }
};

/**
 * An EventQueue and the reference driven in lock step. Each event
 * logs its id when it runs and schedules 0-2 children whose delays
 * come from a stream seeded by its id, so both sides spawn the same
 * children when they run the same events.
 */
struct OrderingHarness
{
    explicit OrderingHarness(std::uint64_t s) : seed(s) {}

    struct Fire
    {
        OrderingHarness *h;
        unsigned id;
        void operator()() const { h->fired(id); }
    };

    template <typename Fn>
    void
    children(unsigned id, Fn &&spawn)
    {
        Rng r(seed * 0x9e3779b97f4a7c15ull + id);
        std::uint64_t roll = r.below(10);
        unsigned n = roll < 3 ? 1 : roll < 4 ? 2 : 0;
        for (unsigned i = 0; i < n; ++i)
            spawn(boundaryDelay(r));
    }

    void
    fired(unsigned id)
    {
        got.push_back(id);
        children(id, [this](Tick d) {
            eq.scheduleAfter(d, Fire{this, nextId++});
        });
    }

    void
    refStep()
    {
        unsigned id = ref.pop();
        want.push_back(id);
        children(id, [this](Tick d) {
            ref.schedule(ref.now + d, refNextId++);
        });
    }

    /** Schedule from outside any callback, alternating the API. */
    void
    scheduleOutside(Tick delay)
    {
        if (nextId % 2)
            eq.scheduleAfter(delay, Fire{this, nextId++});
        else
            eq.schedule(eq.curTick() + delay, Fire{this, nextId++});
        ref.schedule(ref.now + delay, refNextId++);
    }

    /** One step on both sides, checking nextAt() before it. */
    void
    step()
    {
        if (!ref.pending.empty()) {
            ASSERT_FALSE(eq.empty());
            ASSERT_EQ(eq.nextAt(), std::get<0>(*ref.pending.begin()));
        }
        bool ran = eq.step();
        ASSERT_EQ(ran, !ref.pending.empty());
        if (ran)
            refStep();
    }

    void
    runUntil(Tick limit)
    {
        eq.runUntil(limit);
        while (!ref.pending.empty() &&
               std::get<0>(*ref.pending.begin()) <= limit)
            refStep();
        if (!ref.pending.empty())
            ref.now = std::max(ref.now, limit);
    }

    void
    expectSame()
    {
        ASSERT_EQ(got.size(), want.size());
        for (; checked < got.size(); ++checked)
            ASSERT_EQ(got[checked], want[checked])
                << "event #" << checked << " ran out of order";
        ASSERT_EQ(eq.curTick(), ref.now);
        ASSERT_EQ(eq.pending(), ref.pending.size());
        ASSERT_EQ(eq.executed(), ref.executed);
        ASSERT_EQ(eq.scheduled(), ref.seq);
    }

    std::uint64_t seed;
    EventQueue eq;
    ReferenceQueue ref;
    std::vector<unsigned> got;
    std::vector<unsigned> want;
    std::size_t checked = 0;
    unsigned nextId = 0;
    unsigned refNextId = 0;
};

} // namespace

TEST(EventQueue, MatchesReferenceOrderAcrossBucketsAndHorizon)
{
    // Start ticks off any 1024-tick bucket boundary (and one on it).
    constexpr Tick starts[] = {0, 1, 513, 1023, 1025, (1u << 20) - 1,
                               (1u << 23) + 700, 123456789};
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        OrderingHarness h(seed);
        Rng rng(seed);
        Tick start = starts[seed % std::size(starts)];
        if (start) {
            h.scheduleOutside(start);
            ASSERT_NO_FATAL_FAILURE(h.step());
            ASSERT_NO_FATAL_FAILURE(h.expectSame());
        }

        // The aliasing case: with now mid-bucket, an event one tick
        // short of either horizon must still run after nearer ones,
        // and one just past it before farther ones.
        for (unsigned shift : {10u, 13u}) {
            Tick horizon = bucketTicks << shift;
            h.scheduleOutside(horizon - 1);
            h.scheduleOutside(horizon + 1);
            h.scheduleOutside(horizon);
            h.scheduleOutside(nsToTicks(1));
            h.scheduleOutside(bucketTicks - 1);
            h.scheduleOutside(0);
        }
        for (int i = 0; i < 12; ++i)
            ASSERT_NO_FATAL_FAILURE(h.step());
        ASSERT_NO_FATAL_FAILURE(h.expectSame());

        for (int op = 0; op < 3000; ++op) {
            switch (rng.below(8)) {
              case 0:
              case 1:
              case 2:
                h.scheduleOutside(boundaryDelay(rng));
                break;
              case 3:
              case 4:
              case 5:
                ASSERT_NO_FATAL_FAILURE(h.step());
                break;
              case 6:
                h.runUntil(h.eq.curTick() + boundaryDelay(rng));
                break;
              default:
                for (std::uint64_t n = rng.below(8); n > 0; --n)
                    ASSERT_NO_FATAL_FAILURE(h.step());
                break;
            }
            ASSERT_NO_FATAL_FAILURE(h.expectSame()) << "op " << op;
        }
        while (!h.ref.pending.empty())
            ASSERT_NO_FATAL_FAILURE(h.step());
        ASSERT_NO_FATAL_FAILURE(h.expectSame());
        EXPECT_TRUE(h.eq.empty());
        EXPECT_FALSE(h.eq.step());
    }
}

TEST(EventQueue, DestroyedQueueReleasesPendingCaptures)
{
    // Worlds die with events pending (an idle DDR4 controller keeps
    // its refresh wake-up armed): every pending capture, near or far,
    // inline or spilled, must be destroyed exactly once.
    auto token = std::make_shared<int>(0);
    struct Big
    {
        char blob[2 * InplaceCallback::inlineCapacity] = {};
    } big;
    constexpr Tick delays[] = {0,
                               1,
                               bucketTicks + 1,
                               nsToTicks(300),
                               (bucketTicks << 10) + 1,
                               (bucketTicks << 13) + 1,
                               nsToTicks(50000)};
    {
        EventQueue eq;
        eq.schedule(777, [] {});
        eq.run(); // now mid-bucket
        for (Tick d : delays) {
            eq.scheduleAfter(d, [token] { (void)token; });
            eq.scheduleAfter(d, [token, big] {
                (void)token;
                (void)big;
            });
        }
        // Run a few so some slots are recycled before the queue dies.
        eq.step();
        eq.step();
        EXPECT_EQ(eq.heapCallbacks(), std::size(delays));
        EXPECT_EQ(eq.pending(), 2 * std::size(delays) - 2);
        EXPECT_EQ(token.use_count(),
                  static_cast<long>(1 + eq.pending()));
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST(InplaceCallback, SmallCaptureStaysInline)
{
    int hits = 0;
    InplaceCallback cb([&hits] { ++hits; });
    ASSERT_TRUE(static_cast<bool>(cb));
    EXPECT_FALSE(cb.heapAllocated());
    cb();
    cb();
    EXPECT_EQ(hits, 2);
}

TEST(InplaceCallback, LargeCaptureFallsBackToHeap)
{
    struct Big
    {
        char blob[3 * InplaceCallback::inlineCapacity];
    } big = {};
    big.blob[0] = 42;
    int seen = 0;
    InplaceCallback cb([big, &seen] { seen = big.blob[0]; });
    EXPECT_TRUE(cb.heapAllocated());
    cb();
    EXPECT_EQ(seen, 42);
}

TEST(InplaceCallback, MoveTransfersOwnership)
{
    // Inline case: the capture must survive relocation by move.
    auto flag = std::make_shared<int>(0);
    InplaceCallback a([flag] { ++*flag; });
    EXPECT_EQ(flag.use_count(), 2);
    InplaceCallback b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_EQ(flag.use_count(), 2) << "move must not copy the capture";
    b();
    EXPECT_EQ(*flag, 1);
    b.reset();
    EXPECT_EQ(flag.use_count(), 1);

    // Heap case: moving transfers the heap cell, no reallocation.
    struct Big
    {
        std::shared_ptr<int> p;
        char pad[2 * InplaceCallback::inlineCapacity] = {};
    };
    auto counter = std::make_shared<int>(0);
    InplaceCallback c(
        [cap = Big{counter, {}}] { ++*cap.p; });
    EXPECT_TRUE(c.heapAllocated());
    InplaceCallback d;
    d = std::move(c);
    EXPECT_TRUE(d.heapAllocated());
    d();
    EXPECT_EQ(*counter, 1);
}

TEST(Types, TickConversions)
{
    EXPECT_EQ(nsToTicks(1.0), 1000u);
    EXPECT_DOUBLE_EQ(ticksToNs(2500), 2.5);
    EXPECT_EQ(alignDown(0x12345, 0x1000), 0x12000u);
    EXPECT_EQ(alignUp(0x12345, 0x1000), 0x13000u);
    EXPECT_TRUE(isPowerOf2(64));
    EXPECT_FALSE(isPowerOf2(48));
    EXPECT_EQ(log2i(4096), 12u);
}

TEST(Types, ClockDomain)
{
    ClockDomain clk(1000.0); // 1 GHz -> 1000 ps period.
    EXPECT_EQ(clk.period(), 1000u);
    EXPECT_EQ(clk.cycles(5), 5000u);
    EXPECT_EQ(clk.nextEdge(1500), 2000u);
    EXPECT_EQ(clk.nextEdge(2000), 2000u);
}

TEST(Config, ParsesSectionsAndTypes)
{
    auto cfg = nvram::NvramConfig::fromString(
        "[nvram]\n"
        "num_dimms = 6\n"
        "interleaved = YES\n"
        "dimm_capacity = 4G  # comment\n"
        "media_read_ns = 1.5\n"
        "; another comment\n"
        "[ nvram ]\n"
        "wear_threshold = 2K\n"
        "mode = memory\n");
    EXPECT_EQ(cfg.numDimms, 6u);
    EXPECT_TRUE(cfg.interleaved);
    EXPECT_EQ(cfg.dimmCapacity, 4ull << 30);
    EXPECT_DOUBLE_EQ(cfg.mediaReadNs, 1.5);
    EXPECT_EQ(cfg.wearThreshold, 2048u);
    EXPECT_TRUE(cfg.memoryMode());
}

TEST(Config, SizeSuffixes)
{
    EXPECT_EQ(nvram::parseSize("64"), 64u);
    EXPECT_EQ(nvram::parseSize("16K"), 16384u);
    EXPECT_EQ(nvram::parseSize("16KiB"), 16384u);
    EXPECT_EQ(nvram::parseSize("4M"), 4ull << 20);
    EXPECT_EQ(nvram::parseSize("2G"), 2ull << 30);
    EXPECT_EQ(nvram::parseSize("1.5K"), 1536u);
}

TEST(Config, FromConfigOverridesNvram)
{
    auto nv = nvram::NvramConfig::fromString("[nvram]\nlsq_entries = 32\n");
    EXPECT_EQ(nv.lsqEntries, 32u);
    // Untouched keys keep defaults.
    EXPECT_EQ(nv.rmwEntries,
              nvram::NvramConfig::optaneDefault().rmwEntries);
}

TEST(Curve, InflectionOnStep)
{
    Curve c;
    for (std::uint64_t x = 64; x <= 1 << 20; x *= 2) {
        double y = x <= 16384 ? 100 : 300;
        c.add(static_cast<double>(x), y);
    }
    auto infl = c.findInflections(0.25);
    ASSERT_EQ(infl.size(), 1u);
    EXPECT_EQ(infl[0], 16384.0);
}

TEST(Curve, InflectionOnGradualRun)
{
    // A multi-step ramp whose per-step rise is small but whose
    // cumulative rise is large must still be one inflection.
    Curve c;
    double y = 100;
    for (std::uint64_t x = 64; x <= 1 << 20; x *= 2) {
        c.add(static_cast<double>(x), y);
        if (x >= 4096 && x < 65536)
            y *= 1.15;
    }
    auto infl = c.findInflections(0.25);
    ASSERT_EQ(infl.size(), 1u);
    EXPECT_EQ(infl[0], 4096.0);
}

TEST(Curve, NoFalseInflectionOnNoise)
{
    Curve c;
    for (std::uint64_t x = 64; x <= 1 << 16; x *= 2) {
        double y = 100 + ((x / 64) % 2 ? 2.0 : 0.0); // 2% jitter.
        c.add(static_cast<double>(x), y);
    }
    EXPECT_TRUE(c.findInflections(0.25).empty());
}

TEST(Curve, TwoInflections)
{
    Curve c;
    for (std::uint64_t x = 64; x <= 1 << 26; x *= 2) {
        double y = x <= 16384 ? 170 : (x <= (16 << 20) ? 300 : 410);
        c.add(static_cast<double>(x), y);
    }
    auto infl = c.findInflections(0.22);
    ASSERT_EQ(infl.size(), 2u);
    EXPECT_EQ(infl[0], 16384.0);
    EXPECT_EQ(infl[1], 16.0 * (1 << 20));
}

TEST(Curve, SegmentLevels)
{
    Curve c;
    for (std::uint64_t x = 64; x <= 1 << 26; x *= 2) {
        double y = x <= 16384 ? 170 : (x <= (16 << 20) ? 300 : 410);
        c.add(static_cast<double>(x), y);
    }
    auto levels = c.segmentLevels(c.findInflections(0.22));
    ASSERT_EQ(levels.size(), 3u);
    EXPECT_NEAR(levels[0], 170, 1);
    EXPECT_NEAR(levels[1], 300, 25); // Includes ramp points.
    EXPECT_NEAR(levels[2], 410, 25);
}

TEST(Curve, AccuracyAgainstSelfIsOne)
{
    Curve c;
    for (std::uint64_t x = 64; x <= 4096; x *= 2)
        c.add(static_cast<double>(x), static_cast<double>(x) * 2);
    EXPECT_NEAR(c.accuracyAgainst(c), 1.0, 1e-9);
}

TEST(Curve, AccuracyPenalizesMismatch)
{
    Curve a, b;
    for (std::uint64_t x = 64; x <= 4096; x *= 2) {
        a.add(static_cast<double>(x), 100);
        b.add(static_cast<double>(x), 150);
    }
    EXPECT_NEAR(a.accuracyAgainst(b), 1.0 - 50.0 / 150.0, 1e-9);
}

TEST(Curve, ValueAtUsesFloorSemantics)
{
    Curve c;
    c.add(64, 1);
    c.add(128, 2);
    c.add(256, 3);
    EXPECT_EQ(c.valueAt(64), 1);
    EXPECT_EQ(c.valueAt(200), 2);
    EXPECT_EQ(c.valueAt(9999), 3);
}

TEST(Curve, LogSweepEndpoints)
{
    auto s = logSweep(64, 1024);
    ASSERT_EQ(s.size(), 5u);
    EXPECT_EQ(s.front(), 64u);
    EXPECT_EQ(s.back(), 1024u);
    auto odd = logSweep(64, 100);
    EXPECT_EQ(odd.back(), 100u);
}

TEST(Curve, FormatSize)
{
    EXPECT_EQ(formatSize(64), "64");
    EXPECT_EQ(formatSize(16384), "16K");
    EXPECT_EQ(formatSize(16ull << 20), "16M");
    EXPECT_EQ(formatSize(2ull << 30), "2G");
    EXPECT_EQ(formatSize(100), "100");
}

TEST(Stats, ScalarAndAverage)
{
    StatGroup g("test");
    StatScalar count{g, "count"};
    StatAverage lat{g, "lat"};
    count.inc();
    count.inc(4);
    EXPECT_EQ(g.scalarValue("count"), 5u);
    lat.sample(10);
    lat.sample(20);
    EXPECT_DOUBLE_EQ(lat.mean(), 15.0);
    EXPECT_DOUBLE_EQ(lat.min(), 10.0);
    EXPECT_DOUBLE_EQ(lat.max(), 20.0);
    EXPECT_NE(g.dump().find("test.count = 5"), std::string::npos);
    EXPECT_NE(g.dump().find("test.lat = 15 (n=2, min=10, max=20)"),
              std::string::npos);
    EXPECT_EQ(g.scalarValue("never_registered"), 0u);
}

TEST(Stats, DistributionPercentiles)
{
    StatGroup g("test");
    StatDistribution d{g, "d"};
    for (int i = 1; i <= 100; ++i)
        d.sample(i);
    EXPECT_NEAR(d.percentile(0.5), 50.5, 1.0);
    EXPECT_NEAR(d.percentile(0.99), 99, 1.5);
    EXPECT_DOUBLE_EQ(d.min(), 1);
    EXPECT_DOUBLE_EQ(d.max(), 100);
}

namespace
{

/** A component-shaped stat owner: one group, typed members. */
struct Counters
{
    explicit Counters(StatGroup::Listing listing = StatGroup::Listing::Used)
        : group("unit", listing)
    {}

    StatGroup group;
    StatScalar hits{group, "hits"};
    StatScalar misses{group, "misses"};
    StatAverage queueNs{group, "queue_ns"};
    StatDistribution latNs{group, "lat_ns"};
};

std::string
jsonOf(const StatGroup &g)
{
    MetricsRegistry reg;
    reg.add(g);
    return reg.toJson();
}

std::vector<std::uint8_t>
streamOf(StatGroup &g)
{
    snapshot::StateSink sink;
    snapshot::Archive ar(sink);
    g.serialize(ar);
    return sink.take();
}

} // namespace

TEST(Stats, BumpAfterRestoreShowsInJson)
{
    Counters warm;
    warm.hits.inc(3);
    std::vector<std::uint8_t> bytes = streamOf(warm.group);

    Counters fork;
    fork.misses.inc(9); // Overwritten: misses is not in the stream.
    snapshot::StateSource src(bytes);
    snapshot::Archive ar(src);
    fork.group.serialize(ar);
    EXPECT_TRUE(src.exhausted());
    EXPECT_TRUE(fork.group.identicalTo(warm.group));
    EXPECT_EQ(fork.misses.value(), 0u);

    // The members themselves took the values: bumps after the restore
    // land in the group without re-resolving anything.
    fork.hits.inc();
    fork.misses.inc();
    std::string json = jsonOf(fork.group);
    EXPECT_NE(json.find("\"hits\": 4"), std::string::npos) << json;
    EXPECT_NE(json.find("\"misses\": 1"), std::string::npos) << json;
}

TEST(Stats, ListingAllShowsZerosListingUsedHidesThem)
{
    Counters all(StatGroup::Listing::All);
    std::string json = jsonOf(all.group);
    EXPECT_NE(json.find("\"hits\": 0"), std::string::npos) << json;
    EXPECT_NE(json.find("\"queue_ns\": {\"mean\": null"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"lat_ns\": {\"mean\": null"),
              std::string::npos)
        << json;

    Counters used;
    EXPECT_EQ(jsonOf(used.group).find("hits"), std::string::npos);
    EXPECT_EQ(used.group.dump(), "");
    used.hits.inc();
    used.queueNs.sample(2);
    used.latNs.sample(5);
    json = jsonOf(used.group);
    EXPECT_NE(json.find("\"hits\": 1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"queue_ns\": {\"mean\": 2"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"lat_ns\": {\"mean\": 5"), std::string::npos)
        << json;
    EXPECT_EQ(json.find("misses"), std::string::npos) << json;

    // A scalar an export-time writer sets by name is listed at once.
    used.group.scalar("exported").set(0);
    EXPECT_NE(jsonOf(used.group).find("\"exported\": 0"),
              std::string::npos);
}

TEST(Stats, JsonDumpAndStreamListTheSameKeys)
{
    for (auto listing : {StatGroup::Listing::Used, StatGroup::Listing::All}) {
        Counters c(listing);
        c.misses.inc(2);
        c.queueNs.sample(1.5);

        std::vector<std::string> listed;
        for (const StatScalar *s : c.group.allScalars())
            listed.push_back(s->name());
        for (const StatAverage *a : c.group.allAverages())
            listed.push_back(a->name());
        std::vector<std::string> want =
            listing == StatGroup::Listing::All
                ? std::vector<std::string>{"hits", "misses", "queue_ns"}
                : std::vector<std::string>{"misses", "queue_ns"};
        EXPECT_EQ(listed, want);

        // The snapshot stream: scalars then averages, by name.
        std::vector<std::uint8_t> bytes = streamOf(c.group);
        snapshot::StateSource src(bytes);
        src.tag("stats");
        EXPECT_EQ(src.str(), "unit");
        std::vector<std::string> streamed;
        for (std::uint64_t n = src.u64(); n > 0; --n) {
            streamed.push_back(src.str());
            src.u64();
        }
        for (std::uint64_t n = src.u64(); n > 0; --n) {
            streamed.push_back(src.str());
            src.f64();
            src.u64();
            src.f64();
            src.f64();
        }
        EXPECT_TRUE(src.exhausted());
        EXPECT_EQ(streamed, want);

        std::string json = jsonOf(c.group);
        std::string dump = c.group.dump();
        for (const char *key : {"hits", "misses", "queue_ns", "lat_ns"}) {
            bool expect = std::find(want.begin(), want.end(), key) !=
                              want.end() ||
                          (listing == StatGroup::Listing::All &&
                           std::string(key) == "lat_ns");
            EXPECT_EQ(json.find(std::string("\"") + key + "\"") !=
                          std::string::npos,
                      expect)
                << key << "\n" << json;
            EXPECT_EQ(dump.find(std::string("unit.") + key + " ") !=
                          std::string::npos,
                      expect)
                << key << "\n" << dump;
        }
    }
}

TEST(StatsDeathTest, RestoringAnUnregisteredKeyFails)
{
    StatGroup wide("unit");
    StatScalar hits{wide, "hits"};
    StatScalar extra{wide, "extra"};
    hits.inc();
    extra.inc();
    std::vector<std::uint8_t> bytes = streamOf(wide);

    EXPECT_DEATH(
        {
            Counters narrow;
            snapshot::StateSource src(bytes);
            snapshot::Archive ar(src);
            narrow.group.serialize(ar);
        },
        "stat group \"unit\" has no stat \"extra\" to restore");
}

TEST(StatsDeathTest, RegisteringANameTwiceFails)
{
    EXPECT_DEATH(
        {
            StatGroup g("unit");
            StatScalar a(g, "hits");
            StatScalar b(g, "hits");
        },
        "stat group \"unit\" registers \"hits\" twice");
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42), c(43);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Rng, UniformInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        EXPECT_LT(r.below(17), 17u);
    }
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng r(3);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto orig = v;
    r.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Zipfian, SkewsTowardLowRanks)
{
    Rng r(5);
    workloads::Zipfian z(10000, 0.99);
    std::uint64_t low = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        if (z.next(r) < 10)
            ++low;
    }
    // With theta=0.99, the top-10 of 10k keys draw a large share.
    EXPECT_GT(static_cast<double>(low) / n, 0.25);
}

TEST(Zipfian, StaysInRange)
{
    Rng r(6);
    workloads::Zipfian z(100, 0.9);
    for (int i = 0; i < 5000; ++i)
        EXPECT_LT(z.next(r), 100u);
}

TEST(AsciiChart, TableAlignsColumns)
{
    TextTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22222"});
    std::string s = t.render();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("22222"), std::string::npos);
}

TEST(AsciiChart, ChartRendersCurves)
{
    Curve c("demo");
    for (std::uint64_t x = 64; x <= 4096; x *= 2)
        c.add(static_cast<double>(x), static_cast<double>(x));
    std::string s = asciiChart({c});
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find('*'), std::string::npos);
}
