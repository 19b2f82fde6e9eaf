/**
 * @file
 * Allocation-count regression test for the pooled request path.
 *
 * Global counting operator new/delete hooks measure the steady-state
 * window of a fig05-style workload (warm read hits plus merging
 * non-temporal rewrites and a fence) and assert ZERO heap allocations
 * after warmup: the request pool recycles slots, the IMC queues run
 * on grown-in-place rings, completion callbacks stay inside
 * InplaceFunction's inline buffer, and the event kernel reuses its
 * callback slab. A kernel-only window then drives a bare warmed
 * EventQueue from all-near to all-far rounds of the same depth: its
 * far-event storage must grow with the slab, never on its own.
 *
 * A second check counts live heap blocks across a whole CPU-core run
 * and its teardown: a world whose loads wait on page walks must give
 * back every block it took (no event closure may own itself).
 *
 * Two more price the cache layer: building and freeing a Table V
 * Hierarchy takes a handful of blocks (one zeroed array per cache and
 * TLB level), and a warmed hierarchy serves random accesses that miss
 * every level without allocating. The cache arrays come from calloc,
 * which the build links through __wrap_calloc (-Wl,--wrap=calloc) so
 * that it is counted as an allocation too; live-block balance covers
 * operator new/delete only.
 *
 * Runs as its own executable -- not under gtest -- so nothing but the
 * simulator touches the heap inside the measured region, and it
 * unsets VANS_VERIFY/VANS_TRACE before building the world: verified
 * and traced runs wrap completion callbacks with captures that
 * deliberately spill (observability is allowed to allocate).
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <execinfo.h>
#include <new>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "cpu/core.hh"
#include "lens/driver.hh"
#include "nvram/vans_system.hh"
#include "trace/trace.hh"

namespace
{

std::atomic<std::uint64_t> g_newCalls{0};
/** Heap blocks allocated and not yet freed. */
std::atomic<std::int64_t> g_liveBlocks{0};

/** Armed under VANS_ZEROALLOC_TRAP=1: abort at the first allocation
 *  inside the measured window so a debugger shows the site. */
std::atomic<bool> g_trap{false};

std::uint64_t
newCalls()
{
    return g_newCalls.load(std::memory_order_relaxed);
}

std::int64_t
liveBlocks()
{
    return g_liveBlocks.load(std::memory_order_relaxed);
}

void
countNew()
{
    g_newCalls.fetch_add(1, std::memory_order_relaxed);
    g_liveBlocks.fetch_add(1, std::memory_order_relaxed);
}

void
countedFree(void *p)
{
    if (p)
        g_liveBlocks.fetch_sub(1, std::memory_order_relaxed);
    std::free(p);
}

void *
countedAlloc(std::size_t size)
{
    countNew();
    if (g_trap.load(std::memory_order_relaxed)) {
        g_trap.store(false, std::memory_order_relaxed);
        void *frames[32];
        int n = backtrace(frames, 32);
        backtrace_symbols_fd(frames, n, 2);
        std::fputs("----\n", stderr);
        g_trap.store(true, std::memory_order_relaxed);
    }
    if (void *p = std::malloc(size ? size : 1))
        return p;
    std::abort();
}

void *
countedAllocAligned(std::size_t size, std::align_val_t align)
{
    countNew();
    if (void *p = std::aligned_alloc(static_cast<std::size_t>(align),
                                     size ? size : 1))
        return p;
    std::abort();
}

} // namespace

extern "C" void *__real_calloc(std::size_t n, std::size_t size);

extern "C" void *
__wrap_calloc(std::size_t n, std::size_t size)
{
    g_newCalls.fetch_add(1, std::memory_order_relaxed);
    return __real_calloc(n, size);
}

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}
void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    countNew();
    return std::malloc(size ? size : 1);
}
void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    countNew();
    return std::malloc(size ? size : 1);
}
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAllocAligned(size, align);
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAllocAligned(size, align);
}

void
operator delete(void *p) noexcept
{
    countedFree(p);
}
void
operator delete[](void *p) noexcept
{
    countedFree(p);
}
void
operator delete(void *p, std::size_t) noexcept
{
    countedFree(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    countedFree(p);
}
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}
void
operator delete(void *p, std::align_val_t) noexcept
{
    countedFree(p);
}
void
operator delete[](void *p, std::align_val_t) noexcept
{
    countedFree(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    countedFree(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    countedFree(p);
}

namespace
{

using namespace vans;

/**
 * One fig05-shaped steady-state round over a small footprint: read
 * hits against the warm RMW read cache, a merging non-temporal
 * rewrite burst into the same lines, and a fence that drains the
 * write-pending queues.
 */
void
steadyRound(lens::Driver &drv, const std::vector<Addr> &lines)
{
    for (Addr a : lines)
        drv.read(a);
    drv.streamReads(lines, 8);
    for (Addr a : lines)
        drv.write(a);
    drv.fence();
}

int
runTest()
{
    // ctest exports VANS_VERIFY=1 for the main suite; a verified or
    // traced world wraps callbacks with captures that spill to the
    // heap by design, so this test must build a plain world.
    unsetenv("VANS_VERIFY");
    unsetenv("VANS_TRACE");
    setQuiet(true);

    EventQueue eq;
    nvram::VansSystem sys(eq, nvram::NvramConfig::optaneDefault());
    lens::Driver drv(sys);

    std::vector<Addr> lines;
    for (Addr a = 0; a < 8 * cacheLineSize; a += cacheLineSize)
        lines.push_back(a);

    // Warmup: grow the pool, the IMC rings, the event slab and every
    // hazard scratch vector to their steady-state peak. Two rounds so
    // second-round growth (e.g. a ring doubling) is also absorbed.
    for (int round = 0; round < 3; ++round)
        steadyRound(drv, lines);

    std::uint64_t before = newCalls();
    if (const char *trap = std::getenv("VANS_ZEROALLOC_TRAP");
        trap && trap[0] == '1')
        g_trap.store(true, std::memory_order_relaxed);
    // Long enough that a std::deque on the path (a 512-byte node per
    // 64 pushes) crosses a node boundary inside the window.
    constexpr int measuredRounds = 100;
    for (int round = 0; round < measuredRounds; ++round)
        steadyRound(drv, lines);
    std::uint64_t delta = newCalls() - before;
    g_trap.store(false, std::memory_order_relaxed);

    std::uint64_t ops =
        static_cast<std::uint64_t>(measuredRounds) *
        (3 * lines.size() + 1);
    if (delta != 0) {
        std::fprintf(stderr,
                     "FAIL: %llu heap allocation(s) across %llu "
                     "steady-state ops (expected 0)\n",
                     static_cast<unsigned long long>(delta),
                     static_cast<unsigned long long>(ops));
        return 1;
    }
    std::printf("PASS: 0 heap allocations across %llu steady-state "
                "ops (pool capacity %u, live %zu)\n",
                static_cast<unsigned long long>(ops),
                sys.pool().capacity(), sys.pool().live());
    return 0;
}

/**
 * One CPU-core run on a world built and torn down inside the call.
 * Every load goes to a new page 1 MB from the last, so its TLB walk
 * reads a page-table line that misses the LLC and the load waits on
 * that read.
 */
void
gatedLoadRun()
{
    EventQueue eq;
    nvram::VansSystem sys(eq, nvram::NvramConfig::optaneDefault());
    cache::Hierarchy caches;
    cpu::CpuCore core(sys, caches);
    constexpr unsigned loads = 64;
    std::vector<trace::TraceInst> insts;
    for (unsigned i = 0; i < loads; ++i) {
        trace::TraceInst ld;
        ld.type = trace::InstType::Load;
        ld.addr = static_cast<Addr>(i) << 20;
        insts.push_back(ld);
    }
    trace::VectorTraceSource src(std::move(insts));
    core.run(src, loads);
    sys.drain();
}

int
runTeardownTest()
{
    gatedLoadRun(); // Absorbs lazily built process-wide state.
    std::int64_t before = liveBlocks();
    gatedLoadRun();
    std::int64_t leaked = liveBlocks() - before;
    if (leaked != 0) {
        std::fprintf(stderr,
                     "FAIL: %lld heap block(s) still live after a "
                     "page-walk-gated core run and its teardown "
                     "(expected 0)\n",
                     static_cast<long long>(leaked));
        return 1;
    }
    std::printf("PASS: page-walk-gated core run frees every heap "
                "block at teardown\n");
    return 0;
}

/**
 * One kernel-only round: @p depth events pending at once, @p far of
 * them 200-300 us out (beyond any near-future horizon a kernel
 * keeps), the rest within 300 ns; every other one re-arms a 1-tick
 * event from inside its callback. Then drain.
 */
void
kernelRound(EventQueue &eq, Rng &rng, unsigned depth, unsigned far)
{
    for (unsigned i = 0; i < depth; ++i) {
        Tick d = i < far ? nsToTicks(200000) + rng.below(nsToTicks(100000))
                         : rng.below(nsToTicks(300));
        eq.scheduleAfter(d, [&eq, rearm = i % 2 == 0] {
            if (rearm)
                eq.scheduleAfter(1, [] {});
        });
    }
    eq.run();
}

int
runKernelTest()
{
    constexpr unsigned depth = 300;
    EventQueue eq;
    Rng rng(31);
    // Warm-up: the mix includes far events, so every structure the
    // kernel keeps has seen both kinds at full depth.
    for (int round = 0; round < 4; ++round)
        kernelRound(eq, rng, depth, depth / 8);

    // Rounds of the same depth, from all near to all far: whatever
    // split between near and far storage a kernel makes, its far side
    // must already hold the slab's capacity.
    std::uint64_t before = newCalls();
    std::uint64_t events = eq.executed();
    for (unsigned far = 0; far <= depth; far += depth / 10)
        kernelRound(eq, rng, depth, far);
    std::uint64_t delta = newCalls() - before;
    events = eq.executed() - events;
    if (delta != 0) {
        std::fprintf(stderr,
                     "FAIL: %llu heap allocation(s) across %llu kernel "
                     "events of a warmed queue (expected 0)\n",
                     static_cast<unsigned long long>(delta),
                     static_cast<unsigned long long>(events));
        return 1;
    }
    std::printf("PASS: 0 heap allocations across %llu kernel events "
                "near and beyond the horizon (peak pending %zu)\n",
                static_cast<unsigned long long>(events),
                eq.peakPending());
    return 0;
}

/** Heap blocks (operator new plus calloc) a Table V Hierarchy takes
 *  to be built and freed: one array per cache and TLB level. */
int
runHierarchyBuildTest()
{
    constexpr std::uint64_t budget = 8;
    std::uint64_t before = newCalls();
    {
        cache::Hierarchy h;
    }
    std::uint64_t delta = newCalls() - before;
    if (delta > budget) {
        std::fprintf(stderr,
                     "FAIL: building and freeing a Table V hierarchy "
                     "took %llu heap blocks (budget %llu)\n",
                     static_cast<unsigned long long>(delta),
                     static_cast<unsigned long long>(budget));
        return 1;
    }
    std::printf("PASS: building and freeing a Table V hierarchy took "
                "%llu heap blocks\n",
                static_cast<unsigned long long>(delta));
    return 0;
}

/** Random lines over 64 GB: nearly every access misses the LLC and
 *  walks. */
void
missRound(cache::Hierarchy &h, Rng &rng, unsigned accesses)
{
    for (unsigned i = 0; i < accesses; ++i) {
        Addr a = rng.below(1ull << 30) * cacheLineSize;
        h.access(a, rng.below(10) < 3);
    }
}

int
runHierarchyAccessTest()
{
    cache::Hierarchy h;
    Rng rng(23);
    // Warm-up: long enough for the LLC to evict dirty lines, so every
    // counter the access path bumps already exists (checked below).
    missRound(h, rng, 600000);
    h.access(0, false);
    h.access(0, false); // An L1 hit.
    const StatGroup *groups[] = {&h.l1().stats(), &h.l2().stats(),
                                 &h.llc().stats()};
    for (const StatGroup *g : groups) {
        for (const char *key : {"hits", "misses", "writebacks"}) {
            if (!g->allScalars().count(key)) {
                std::fprintf(stderr,
                             "FAIL: warm-up never bumped %s.%s\n",
                             g->name().c_str(), key);
                return 1;
            }
        }
    }

    constexpr unsigned accesses = 200000;
    std::uint64_t walks = h.tlb().stats().scalarValue("walks");
    std::uint64_t misses = h.llc().stats().scalarValue("misses");
    std::uint64_t before = newCalls();
    missRound(h, rng, accesses);
    std::uint64_t delta = newCalls() - before;
    walks = h.tlb().stats().scalarValue("walks") - walks;
    misses = h.llc().stats().scalarValue("misses") - misses;
    if (delta != 0) {
        std::fprintf(stderr,
                     "FAIL: %llu heap allocation(s) across %u random "
                     "hierarchy accesses (%llu LLC misses, %llu walks; "
                     "expected 0)\n",
                     static_cast<unsigned long long>(delta), accesses,
                     static_cast<unsigned long long>(misses),
                     static_cast<unsigned long long>(walks));
        return 1;
    }
    std::printf("PASS: 0 heap allocations across %u random hierarchy "
                "accesses (%llu LLC misses, %llu walks)\n",
                accesses, static_cast<unsigned long long>(misses),
                static_cast<unsigned long long>(walks));
    return 0;
}

} // namespace

int
main()
{
    int failed = runTest();
    failed |= runKernelTest();
    failed |= runTeardownTest();
    failed |= runHierarchyBuildTest();
    failed |= runHierarchyAccessTest();
    return failed;
}
