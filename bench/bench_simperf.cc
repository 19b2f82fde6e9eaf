/**
 * @file
 * Simulator-performance microbenchmarks (google-benchmark): event
 * throughput of the kernel and end-to-end simulated accesses per
 * wall second for the main timing models. Useful to spot regressions
 * in the simulator itself, not in the modeled hardware.
 */

#include <benchmark/benchmark.h>

#include "baselines/dram_system.hh"
#include "cache/hierarchy.hh"
#include "common/event_queue.hh"
#include "common/logging.hh"
#include "common/request_pool.hh"
#include "common/rng.hh"
#include "common/snapshot.hh"
#include "common/sweep.hh"
#include "lens/driver.hh"
#include "nvram/vans_system.hh"

using namespace vans;

namespace
{

void
BM_EventQueue(benchmark::State &state)
{
    setQuiet(true);
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t fired = 0;
        for (int i = 0; i < 1000; ++i) {
            eq.schedule(static_cast<Tick>(i) * 10,
                        [&fired] { ++fired; });
        }
        eq.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueue);

void
BM_RequestPool(benchmark::State &state)
{
    setQuiet(true);
    RequestPool pool;
    // Steady-state churn at a fixed in-flight depth: the slab grows
    // once during the first iteration, then every alloc is a
    // free-list pop and every release a push. The get() in the loop
    // keeps the generation check on the measured path.
    constexpr unsigned depth = 64;
    RequestHandle inflight[depth] = {};
    for (auto _ : state) {
        for (unsigned i = 0; i < depth; ++i) {
            RequestHandle h = pool.alloc();
            Request &r = pool.get(h);
            r.addr = static_cast<Addr>(i) * cacheLineSize;
            r.op = (i & 3) ? MemOp::Read : MemOp::Write;
            inflight[i] = h;
        }
        for (unsigned i = 0; i < depth; ++i)
            pool.release(inflight[i]);
        benchmark::DoNotOptimize(pool.capacity());
    }
    state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_RequestPool);

void
BM_VansReadHit(benchmark::State &state)
{
    setQuiet(true);
    EventQueue eq;
    nvram::VansSystem sys(eq, nvram::NvramConfig::optaneDefault());
    lens::Driver drv(sys);
    drv.read(0); // Warm the RMW buffer.
    for (auto _ : state) {
        benchmark::DoNotOptimize(drv.read(0));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VansReadHit);

void
BM_VansWriteStream(benchmark::State &state)
{
    setQuiet(true);
    EventQueue eq;
    nvram::VansSystem sys(eq, nvram::NvramConfig::optaneDefault());
    lens::Driver drv(sys);
    std::vector<Addr> addrs;
    for (Addr a = 0; a < 64 * 64; a += 64)
        addrs.push_back(a);
    for (auto _ : state) {
        benchmark::DoNotOptimize(drv.streamWrites(addrs, 16));
    }
    state.SetItemsProcessed(state.iterations() * addrs.size());
}
BENCHMARK(BM_VansWriteStream);

// ---- Memory-mode (2LM) pair ----------------------------------------
//
// The two benches below are the Memory-mode twins of BM_VansReadHit
// and BM_VansWriteStream: identical request shapes with the
// direct-mapped DRAM cache interposed. The read side prices the
// cache's hot path (tag probe + one DDR4 access per hit); the write
// side prices WPQ drains landing in the cache's write-through +
// writeback machinery instead of the DIMM LSQ.

void
BM_VansMemoryModeReadHit(benchmark::State &state)
{
    setQuiet(true);
    EventQueue eq;
    nvram::NvramConfig cfg = nvram::NvramConfig::optaneDefault();
    cfg.mode = nvram::SystemMode::Memory;
    nvram::VansSystem sys(eq, cfg);
    lens::Driver drv(sys);
    drv.read(0); // Cold miss: fetch + fill the cache line.
    for (auto _ : state) {
        benchmark::DoNotOptimize(drv.read(0));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VansMemoryModeReadHit);

void
BM_VansMemoryModeWriteStream(benchmark::State &state)
{
    setQuiet(true);
    EventQueue eq;
    nvram::NvramConfig cfg = nvram::NvramConfig::optaneDefault();
    cfg.mode = nvram::SystemMode::Memory;
    nvram::VansSystem sys(eq, cfg);
    lens::Driver drv(sys);
    std::vector<Addr> addrs;
    for (Addr a = 0; a < 64 * 64; a += 64)
        addrs.push_back(a);
    for (auto _ : state) {
        benchmark::DoNotOptimize(drv.streamWrites(addrs, 16));
    }
    state.SetItemsProcessed(state.iterations() * addrs.size());
}
BENCHMARK(BM_VansMemoryModeWriteStream);

// ---- Fig 5-shaped end-to-end pair ----------------------------------
//
// The two benches below replay the pointer-chase (5a load side) and
// store-plateau (5a store side) access shapes end to end through the
// full VANS pipeline, sized so the whole footprint stays inside the
// warm RMW read cache / LSQ combining window. They measure exactly
// the steady-state path the request pool keeps allocation-free: the
// zero-alloc regression test asserts the invariant, this pair prices
// it.

void
BM_VansFig05LoadSweep(benchmark::State &state)
{
    setQuiet(true);
    EventQueue eq;
    nvram::VansSystem sys(eq, nvram::NvramConfig::optaneDefault());
    lens::Driver drv(sys);
    std::vector<Addr> lines;
    for (Addr a = 0; a < 8 * cacheLineSize; a += cacheLineSize)
        lines.push_back(a);
    for (Addr a : lines)
        drv.read(a); // Warm the RMW read cache.
    for (auto _ : state) {
        for (Addr a : lines)
            benchmark::DoNotOptimize(drv.read(a));
        benchmark::DoNotOptimize(drv.streamReads(lines, 8));
    }
    state.SetItemsProcessed(state.iterations() * 2 * lines.size());
}
BENCHMARK(BM_VansFig05LoadSweep);

void
BM_VansFig05StoreSweep(benchmark::State &state)
{
    setQuiet(true);
    EventQueue eq;
    nvram::VansSystem sys(eq, nvram::NvramConfig::optaneDefault());
    lens::Driver drv(sys);
    std::vector<Addr> lines;
    for (Addr a = 0; a < 8 * cacheLineSize; a += cacheLineSize)
        lines.push_back(a);
    for (auto _ : state) {
        // Merging rewrites of the same 8 lines plus a draining
        // fence: the LSQ combining plateau of Fig 5a.
        for (Addr a : lines)
            drv.write(a);
        benchmark::DoNotOptimize(drv.fence());
    }
    state.SetItemsProcessed(state.iterations() * lines.size());
}
BENCHMARK(BM_VansFig05StoreSweep);

void
BM_DramRandomRead(benchmark::State &state)
{
    setQuiet(true);
    EventQueue eq;
    baselines::DramMainMemory mem(
        eq, baselines::DramMainMemory::ddr4Params());
    lens::Driver drv(mem);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(drv.read(a));
        a = (a + 64 * 1237) % (1 << 28);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramRandomRead);

// ---- Table V cache hierarchy ----------------------------------------
//
// Every CpuCore run builds a Hierarchy (32 KB L1, 1 MB L2, 32 MB LLC,
// 64/1536-entry TLBs) and frees it, so a short run pays for building
// and freeing it as well as for its accesses; the pair prices both.
// Addresses are random lines over 256 MB (8x the LLC, 64K pages):
// mostly LLC misses and TLB walks, with some LLC and STLB hits.

void
BM_HierarchyConstruct(benchmark::State &state)
{
    setQuiet(true);
    Rng rng(17);
    std::vector<Addr> addrs(1000);
    for (Addr &a : addrs)
        a = rng.below(1u << 22) * cacheLineSize;
    for (auto _ : state) {
        cache::Hierarchy h;
        for (Addr a : addrs)
            benchmark::DoNotOptimize(h.access(a, false));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyConstruct);

void
BM_HierarchyAccess(benchmark::State &state)
{
    setQuiet(true);
    cache::Hierarchy h;
    Rng rng(19);
    for (int i = 0; i < 1000000; ++i)
        h.access(rng.below(1u << 22) * cacheLineSize, i % 4 == 0);
    for (auto _ : state) {
        Addr a = rng.below(1u << 22) * cacheLineSize;
        benchmark::DoNotOptimize(h.access(a, (a & 0xc0) == 0));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyAccess);

// ---- Interleaved 6-DIMM socket -------------------------------------
//
// The Fig 7a socket: one world on one event queue, six channel
// pipelines and six AIT-buffer DRAM controllers sharing its heap. The
// burst ends with a drain, so the per-event quiescence poll is on the
// measured path.

nvram::NvramConfig
sixDimmConfig()
{
    nvram::NvramConfig cfg = nvram::NvramConfig::optaneDefault();
    cfg.numDimms = 6;
    cfg.interleaved = true;
    return cfg;
}

void
sixDimmBurst(MemorySystem &sys)
{
    lens::Driver drv(sys);
    // Write bursts spanning all six 4KB interleaves, then strided
    // reads touching every channel.
    for (unsigned rep = 0; rep < 3; ++rep)
        drv.writeBlock(static_cast<Addr>(rep) * 49152, 24576);
    std::vector<Addr> addrs;
    for (unsigned i = 0; i < 96; ++i)
        addrs.push_back(static_cast<Addr>(i) * 4096);
    drv.streamReads(addrs, 8);
    drv.fence();
}

void
BM_Vans6Dimm(benchmark::State &state)
{
    setQuiet(true);
    nvram::NvramConfig cfg = sixDimmConfig();
    for (auto _ : state) {
        EventQueue eq;
        nvram::VansSystem sys(eq, cfg, "vans6");
        sixDimmBurst(sys);
        sys.drain();
        benchmark::DoNotOptimize(eq.curTick());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Vans6Dimm)->Unit(benchmark::kMillisecond);

// ---- Warm-once/fork-many vs cold-per-point sweeps ------------------
//
// The pair below measures the tentpole win of the snapshot/fork
// subsystem on a warm-dominated sweep: every point needs the same
// 4000-op warm-up before its 200-op measurement. Cold pays the warm
// per point; warm-fork pays it once and restores the captured world
// in O(state). Results are bit-identical (ForkFidelity tests); only
// the wall clock differs. Both run the serial SweepRunner so the
// ratio is the algorithmic speedup, not thread fan-out.

constexpr std::size_t sweepPoints = 8;

SystemFactory
vansFactory()
{
    return [](EventQueue &eq) {
        return std::make_unique<nvram::VansSystem>(
            eq, nvram::NvramConfig::optaneDefault());
    };
}

void
sweepWarm(MemorySystem &sys)
{
    lens::Driver drv(sys);
    Rng rng(11);
    for (int n = 0; n < 4000; ++n) {
        Addr a = rng.below(8u << 20) & ~static_cast<Addr>(63);
        if (rng.below(4) == 0)
            drv.write(a);
        else
            drv.read(a);
    }
    drv.fence();
}

std::uint64_t
sweepPoint(MemorySystem &sys, std::size_t i)
{
    lens::Driver drv(sys);
    Rng rng(SweepRunner::pointSeed(5, i));
    for (int n = 0; n < 200; ++n) {
        Addr a = rng.below(8u << 20) & ~static_cast<Addr>(63);
        if (rng.below(2))
            drv.write(a);
        else
            drv.read(a);
    }
    drv.fence();
    return sys.eventQueue().curTick();
}

void
BM_SweepColdPerPoint(benchmark::State &state)
{
    setQuiet(true);
    auto factory = vansFactory();
    for (auto _ : state) {
        std::uint64_t total = 0;
        for (std::size_t i = 0; i < sweepPoints; ++i) {
            EventQueue eq;
            auto sys = factory(eq);
            sweepWarm(*sys);
            sys->drain();
            total += sweepPoint(*sys, i);
        }
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(state.iterations() * sweepPoints);
}
BENCHMARK(BM_SweepColdPerPoint)->Unit(benchmark::kMillisecond);

void
BM_SweepWarmFork(benchmark::State &state)
{
    setQuiet(true);
    auto factory = vansFactory();
    SweepRunner serial(1);
    for (auto _ : state) {
        auto res = serial.mapFromWarm<std::uint64_t>(
            factory, sweepWarm, sweepPoints,
            [](MemorySystem &sys, std::size_t i) {
                return sweepPoint(sys, i);
            });
        benchmark::DoNotOptimize(res);
    }
    state.SetItemsProcessed(state.iterations() * sweepPoints);
}
BENCHMARK(BM_SweepWarmFork)->Unit(benchmark::kMillisecond);

void
BM_SnapshotCaptureRestore(benchmark::State &state)
{
    setQuiet(true);
    auto factory = vansFactory();
    EventQueue proto_eq;
    auto proto = factory(proto_eq);
    sweepWarm(*proto);
    proto->drain();
    auto snap = snapshot::WorldSnapshot::capture(proto_eq, *proto);
    for (auto _ : state) {
        EventQueue eq;
        auto sys = factory(eq);
        snap.restoreInto(eq, *sys);
        benchmark::DoNotOptimize(sys->quiescent());
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["snapshot_bytes"] =
        static_cast<double>(snap.sizeBytes());
}
BENCHMARK(BM_SnapshotCaptureRestore);

} // namespace

BENCHMARK_MAIN();
