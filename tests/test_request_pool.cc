/**
 * @file
 * Tests for the slab-backed RequestPool: generation-checked handle
 * safety (stale deref dies loudly instead of corrupting memory),
 * growth under burst, deterministic recycle ordering, and the
 * snapshot round-trip that pins a restored world's handle sequence.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/request_pool.hh"
#include "common/snapshot.hh"
#include "common/stats.hh"
#include "tests/test_util.hh"

using namespace vans;

// ---- Handle basics -------------------------------------------------

TEST(RequestHandle, NullHandleIsNeverValid)
{
    RequestHandle h;
    EXPECT_FALSE(static_cast<bool>(h));
    EXPECT_EQ(h.slot(), 0u);
    EXPECT_EQ(h.generation(), 0u);

    RequestPool pool;
    EXPECT_FALSE(pool.valid(h)); // Generations start at 1.
}

TEST(RequestHandle, PacksSlotAndGeneration)
{
    RequestHandle h = RequestHandle::make(0x1234u, 0xabcdu);
    EXPECT_EQ(h.slot(), 0x1234u);
    EXPECT_EQ(h.generation(), 0xabcdu);
    EXPECT_TRUE(static_cast<bool>(h));
    EXPECT_EQ(h, RequestHandle::make(0x1234u, 0xabcdu));
    EXPECT_NE(h, RequestHandle::make(0x1234u, 0xabceu));
}

TEST(RequestPool, AllocResetsEveryDescriptorField)
{
    RequestPool pool;
    RequestHandle h = pool.alloc();
    Request &r = pool.get(h);
    r.id = 42;
    r.addr = 0x1000;
    r.op = MemOp::WriteNT;
    r.issueTick = 7;
    r.completeTick = 9;
    r.preTranslate = true;
    pool.release(h);

    RequestHandle h2 = pool.alloc();
    // LIFO recycle: same slot, fresh generation, clean fields.
    EXPECT_EQ(h2.slot(), h.slot());
    EXPECT_NE(h2.generation(), h.generation());
    Request &r2 = pool.get(h2);
    EXPECT_EQ(r2.id, 0u);
    EXPECT_EQ(r2.addr, 0u);
    EXPECT_EQ(r2.op, MemOp::Read);
    EXPECT_EQ(r2.issueTick, 0u);
    EXPECT_EQ(r2.completeTick, 0u);
    EXPECT_FALSE(r2.preTranslate);
    EXPECT_FALSE(r2.onComplete);
    EXPECT_EQ(r2.trace, nullptr);
    pool.release(h2);
}

// ---- Stale-handle detection ----------------------------------------

TEST(RequestPoolDeathTest, StaleHandleDerefDiesLoudly)
{
    setQuiet(true);
    RequestPool pool;
    RequestHandle h = pool.alloc();
    pool.release(h);
    EXPECT_FALSE(pool.valid(h));
    EXPECT_DEATH(pool.get(h), "stale request handle");
}

TEST(RequestPoolDeathTest, RecycledSlotInvalidatesOldHandle)
{
    setQuiet(true);
    RequestPool pool;
    RequestHandle old = pool.alloc();
    pool.release(old);
    RequestHandle fresh = pool.alloc();
    ASSERT_EQ(fresh.slot(), old.slot()); // LIFO reuses the slot...
    EXPECT_TRUE(pool.valid(fresh));
    EXPECT_FALSE(pool.valid(old)); // ...but the old handle is dead.
    EXPECT_DEATH(pool.get(old), "stale request handle");
    pool.release(fresh);
}

TEST(RequestPoolDeathTest, DoubleReleaseDiesLoudly)
{
    setQuiet(true);
    RequestPool pool;
    RequestHandle h = pool.alloc();
    pool.release(h);
    EXPECT_DEATH(pool.release(h), "stale request handle");
}

TEST(RequestPoolDeathTest, NullHandleDerefDiesLoudly)
{
    setQuiet(true);
    RequestPool pool;
    EXPECT_DEATH(pool.get(RequestHandle{}), "stale request handle");
}

// ---- Growth under burst --------------------------------------------

TEST(RequestPool, GrowsUnderBurstThenRecyclesWithoutGrowing)
{
    RequestPool pool;
    constexpr std::size_t burst = 1000;

    std::vector<RequestHandle> live;
    live.reserve(burst);
    for (std::size_t i = 0; i < burst; ++i)
        live.push_back(pool.alloc());
    EXPECT_EQ(pool.live(), burst);
    EXPECT_GE(pool.capacity(), burst);

    // Every handle distinct and live, and request storage is stable:
    // addresses recorded at alloc time still match after full growth.
    for (std::size_t i = 0; i < burst; ++i)
        pool.get(live[i]).addr = i;
    for (std::size_t i = 0; i < burst; ++i)
        EXPECT_EQ(pool.get(live[i]).addr, i);

    std::uint32_t grown = pool.capacity();
    for (RequestHandle h : live)
        pool.release(h);
    EXPECT_EQ(pool.live(), 0u);

    // A second identical burst recycles: no further growth.
    live.clear();
    for (std::size_t i = 0; i < burst; ++i)
        live.push_back(pool.alloc());
    EXPECT_EQ(pool.capacity(), grown);
    for (RequestHandle h : live)
        pool.release(h);

    StatGroup stats("reqpool");
    pool.statsInto(stats);
    EXPECT_EQ(stats.scalarValue("allocs"), 2 * burst);
    EXPECT_EQ(stats.scalarValue("releases"), 2 * burst);
    EXPECT_EQ(stats.scalarValue("peak_live"), burst);
    EXPECT_EQ(stats.scalarValue("live"), 0u);
    EXPECT_EQ(stats.scalarValue("capacity"), grown);
    // Every alloc that did not trigger a chunk growth was served
    // from the free list.
    EXPECT_EQ(stats.scalarValue("recycles"),
              2 * burst - stats.scalarValue("chunk_growths"));
}

// ---- Recycle-ordering determinism ----------------------------------

namespace
{

/** Drive @p pool through a fixed interleaved alloc/release script and
 *  return every handle value it produced, in order. */
std::vector<std::uint64_t>
handleScript(RequestPool &pool)
{
    std::vector<std::uint64_t> seq;
    std::vector<RequestHandle> live;
    for (int round = 0; round < 50; ++round) {
        // Burst whose depth varies by round, then partial drain in
        // reverse order, then full drain: exercises LIFO recycling
        // across chunk growth.
        int depth = 3 + (round * 17) % 200;
        for (int i = 0; i < depth; ++i) {
            RequestHandle h = pool.alloc();
            seq.push_back(h.bits);
            live.push_back(h);
        }
        for (int i = 0; i < depth / 2; ++i) {
            pool.release(live.back());
            live.pop_back();
        }
        while (!live.empty()) {
            pool.release(live.back());
            live.pop_back();
        }
    }
    return seq;
}

} // namespace

TEST(RequestPool, IdenticalScriptsYieldIdenticalHandleSequences)
{
    RequestPool a, b;
    EXPECT_EQ(handleScript(a), handleScript(b));
}

// ---- Snapshot round-trip -------------------------------------------

TEST(RequestPoolSnapshot, RestoredPoolReplaysTheHandleSequence)
{
    RequestPool proto;
    // Warm the prototype: grow past one chunk and scramble the free
    // list away from the fresh-pool order.
    (void)handleScript(proto);
    ASSERT_EQ(proto.live(), 0u);
    std::uint32_t warm_cap = proto.capacity();
    EXPECT_GT(warm_cap, 128u) << "script must outgrow one chunk";

    snapshot::StateSink sink;
    snapshot::Archive capture(sink);
    proto.serialize(capture);
    auto bytes = sink.take();

    RequestPool fork;
    snapshot::StateSource src(bytes);
    snapshot::Archive restore(src);
    fork.serialize(restore);
    EXPECT_TRUE(src.exhausted());
    EXPECT_EQ(fork.capacity(), warm_cap);
    EXPECT_EQ(fork.live(), 0u);

    // Counters carried over: the restored pool reports the same
    // lifetime stats as the prototype.
    StatGroup ps("p"), fs("f");
    proto.statsInto(ps);
    fork.statsInto(fs);
    for (const char *key : {"allocs", "releases", "recycles",
                            "chunk_growths", "peak_live", "capacity"})
        EXPECT_EQ(fs.scalarValue(key), ps.scalarValue(key)) << key;

    // The core guarantee: both worlds now hand out the exact same
    // handle values for any identical run.
    EXPECT_EQ(handleScript(proto), handleScript(fork));
}

TEST(RequestPoolSnapshotDeathTest, SnapshotWithLiveRequestsDies)
{
    setQuiet(true);
    RequestPool pool;
    RequestHandle h = pool.alloc();
    snapshot::StateSink sink;
    snapshot::Archive ar(sink);
    EXPECT_DEATH(pool.serialize(ar), "live request");
    pool.release(h);
}
