#include "lens/probers.hh"

#include <algorithm>
#include <cmath>

#include "common/check.hh"
#include "common/logging.hh"

namespace vans::lens
{

namespace
{

/** Round to the nearest power of two (for reporting sizes). */
std::uint64_t
roundPow2(double v)
{
    if (v <= 1)
        return 1;
    double l = std::log2(v);
    return 1ull << static_cast<unsigned>(std::lround(l));
}

/**
 * Knee of a declining score curve: the first x whose score is within
 * @p slack of the curve's minimum. This is the operational "score
 * drops to one" rule with robustness to constant offsets.
 */
std::uint64_t
ampKnee(const Curve &score, double slack = 0.10)
{
    if (score.empty())
        return 0;
    double lo = score.minY();
    for (const auto &p : score.points()) {
        if (p.y <= lo * (1.0 + slack))
            return static_cast<std::uint64_t>(p.x);
    }
    return static_cast<std::uint64_t>(score.points().back().x);
}

/** Build a fresh world from @p factory and run @p fn's measurements
 *  in it. The world is torn down when the point finishes. */
template <typename Fn>
auto
withFreshSystem(const SystemFactory &factory, Fn &&fn)
{
    EventQueue eq;
    auto sys = factory(eq);
    Driver drv(*sys);
    return fn(drv);
}

/**
 * Shared read-only warm phase for forked sweeps: one touch per 4KB
 * page over each span, streamed with moderate overlap. This restores
 * the translation/buffer residency a long-running serial sweep
 * leaves behind, and because it is read-only it leaves the wear
 * state untouched -- every forked point still starts from virgin
 * wear counters, exactly like the cold reference run.
 */
void
warmCoverage(MemorySystem &sys,
             const std::vector<std::pair<Addr, std::uint64_t>> &spans)
{
    Driver drv(sys);
    std::vector<Addr> touch;
    for (const auto &[base, bytes] : spans) {
        for (Addr a = alignDown(base, 4096); a < base + bytes;
             a += 4096)
            touch.push_back(a);
    }
    drv.streamReads(touch, 16);
    drv.fence();
}

// ---- Per-point measurement bodies ---------------------------------
//
// Each function below measures one sweep point on the world behind
// its driver: a fresh system restored from the warm image, or one
// built cold.

/** One latency-sweep point: dependent-load and store ns/CL. */
struct LatPoint
{
    double ld = 0;
    double st = 0;
};

LatPoint
latencyPoint(Driver &drv, const BufferProberParams &p,
             std::uint64_t region, std::uint32_t block,
             std::uint64_t seed)
{
    PtrChaseParams pc;
    pc.base = p.base;
    pc.regionBytes = region;
    pc.blockBytes = block;
    pc.warmupLines = p.warmupLines;
    pc.measureLines = p.measureLines;
    pc.seed = seed;
    // On top of the shared warm image: region-local residency is
    // still each point's own.
    pc.coverageWarm = true;
    LatPoint out;
    out.ld = ptrChase(drv, pc).nsPerLine;
    pc.writeMode = true;
    out.st = ptrChase(drv, pc).nsPerLine;
    drv.fence();
    return out;
}

/** One RaW point: read-after-write roundtrip ns/CL. */
double
rawPoint(Driver &drv, Addr base, std::uint64_t region)
{
    auto raw = readAfterWrite(drv, base, region, 64, region);
    drv.fence();
    return raw.rawNsPerLine;
}

/** One read-amplification point: overflow/fit latency ratio. */
double
readAmpPoint(Driver &drv, Addr base, std::uint64_t fit_region,
             std::uint64_t ov_region, std::uint64_t block)
{
    PtrChaseParams pc;
    pc.base = base;
    pc.blockBytes = static_cast<std::uint32_t>(block);
    pc.mlp = 8;
    pc.warmupLines = 6000;
    pc.measureLines = 4000;
    // Warm the fit run only: a fitting region is resident at steady
    // state, while the overflow run's misses ARE the signal.
    pc.coverageWarm = true;
    pc.regionBytes = fit_region;
    pc.seed = block;
    double fit = ptrChase(drv, pc).nsPerLine;
    pc.coverageWarm = false;
    pc.regionBytes = ov_region;
    double ov = ptrChase(drv, pc).nsPerLine;
    return fit > 0 ? ov / fit : 0.0;
}

/** One write-amplification point (fence-per-block variant). */
double
writeAmpPoint(Driver &drv, Addr base, std::uint64_t fit_region,
              std::uint64_t ov_region, std::uint64_t block)
{
    auto run = [&](std::uint64_t region, bool read_warm) {
        auto order = chaseOrder(base, region,
                                static_cast<std::uint32_t>(block),
                                512, block + region);
        if (read_warm) {
            // A fitting region is resident in the combining buffers
            // at steady state, so sub-granule stores hit instead of
            // paying a media read-modify-write. Populate them with a
            // read pass; the overflow run stays cold -- its RMWs are
            // the amplification signal.
            for (Addr a : order)
                drv.readBlock(a, static_cast<std::uint32_t>(block));
            drv.fence();
        }
        // Warm.
        for (std::size_t i = 0; i < order.size() / 2; ++i)
            drv.writeBlock(order[i],
                           static_cast<std::uint32_t>(block));
        drv.fence();
        Tick start = drv.now();
        std::uint64_t lines = 0;
        for (Addr a : order) {
            drv.writeBlock(a, static_cast<std::uint32_t>(block));
            drv.fence();
            lines += block / cacheLineSize;
        }
        return ticksToNs(drv.now() - start) /
               static_cast<double>(lines);
    };
    double fit = run(fit_region, true);
    double ov = run(ov_region, false);
    return fit > 0 ? ov / fit : 0.0;
}

/** Base of wear-granularity point @p point: offset so power-of-two
 *  regions straddle wear blocks the way an arbitrary software
 *  allocation would. */
Addr
tailBase(const PolicyProberParams &p, std::size_t point)
{
    return p.base + (1ull << 30) +
           (static_cast<Addr>(point) << 26) + (32ull << 10);
}

/** One wear-granularity point (Fig 7c): tails per kilo-write. */
double
tailRatioPoint(Driver &drv, const PolicyProberParams &p,
               std::uint64_t region, std::size_t point)
{
    Addr base = tailBase(p, point);
    std::uint64_t iters =
        std::max<std::uint64_t>(p.tailSweepBytes / region, 4);
    auto sweep_ow = overwrite(drv, base, region, iters);
    std::uint64_t tails = 0;
    for (double v : sweep_ow.iterationNs) {
        if (v > p.tailThreshold * sweep_ow.medianNs)
            ++tails;
    }
    std::uint64_t writes_256 =
        iters * std::max<std::uint64_t>(region / 256, 1);
    return writes_256 ? static_cast<double>(tails) * 1000.0 /
                            static_cast<double>(writes_256)
                      : 0;
}

/** Migration latency/frequency analysis on the overwrite series. */
void
analyzeOverwriteTail(Driver &drv, const PolicyProberParams &p,
                     PolicyProbe &out)
{
    auto ow = overwrite(drv, p.base, 256, p.overwriteIterations);
    out.overwriteIterationNs = ow.iterationNs;
    out.normalWriteNs = ow.medianNs;

    std::vector<std::size_t> tail_idx;
    double tail_sum = 0;
    for (std::size_t i = 0; i < ow.iterationNs.size(); ++i) {
        if (ow.iterationNs[i] > p.tailThreshold * ow.medianNs) {
            tail_idx.push_back(i);
            tail_sum += ow.iterationNs[i];
        }
    }
    if (!tail_idx.empty()) {
        out.tailLatencyUs =
            tail_sum / static_cast<double>(tail_idx.size()) / 1000.0;
        if (tail_idx.size() > 1) {
            double interval_sum = 0;
            for (std::size_t i = 1; i < tail_idx.size(); ++i)
                interval_sum += static_cast<double>(tail_idx[i] -
                                                    tail_idx[i - 1]);
            out.tailIntervalWrites =
                interval_sum / static_cast<double>(tail_idx.size() - 1);
        }
    }
}

/** Sequential-write execution time in us (interleave detector). */
double
seqWritePoint(Driver &d, std::uint64_t bytes)
{
    // Deep store buffer so a fresh DIMM's WPQ can absorb a burst
    // while the previous DIMM is still draining -- the overlap that
    // makes interleaving visible to single-thread sequential writes.
    std::vector<Addr> addrs;
    for (Addr a = 0; a < bytes; a += cacheLineSize)
        addrs.push_back(a);
    Tick t = d.streamWrites(addrs, 32, 3.0);
    d.fence();
    return ticksToNs(t) / 1000.0; // us
}

// ---- Analysis of the collected curves -----------------------------

/** Fill capacities/latencies/entry sizes from the collected curves. */
void
finishBufferAnalysis(BufferProbe &out, const BufferProberParams &p)
{
    auto rd_infl = out.loadCurve.findInflections(p.inflectionThreshold);
    auto wr_infl =
        out.storeCurve.findInflections(p.inflectionThreshold);
    for (double x : rd_infl)
        out.readBufferCapacities.push_back(roundPow2(x));
    for (double x : wr_infl)
        out.writeQueueCapacities.push_back(roundPow2(x));
    out.levelLatenciesNs = out.loadCurve.segmentLevels(rd_infl);
}

/** Inclusive if there is no parallel-fast-forward speedup at the
 *  L2 working set: RaW stays at or above the independent R+W sum. */
void
finishRawAnalysis(BufferProbe &out, std::uint64_t cap_l2)
{
    double raw_l2 = out.rawCurve.valueAt(
        static_cast<double>(cap_l2) / 2.0);
    double sum_l2 = out.rwSumCurve.valueAt(
        static_cast<double>(cap_l2) / 2.0);
    out.inclusiveHierarchy = raw_l2 >= 0.85 * sum_l2;
}

/** Detected L1/L2 read capacities with the standard fallbacks. */
std::pair<std::uint64_t, std::uint64_t>
readCaps(const BufferProbe &out)
{
    std::uint64_t cap_l1 = out.readBufferCapacities.empty()
                               ? (16ull << 10)
                               : out.readBufferCapacities.front();
    std::uint64_t cap_l2 = out.readBufferCapacities.size() > 1
                               ? out.readBufferCapacities[1]
                               : (16ull << 20);
    return {cap_l1, cap_l2};
}

/** Detected L1/L2 write-queue capacities with fallbacks. */
std::pair<std::uint64_t, std::uint64_t>
writeCaps(const BufferProbe &out)
{
    std::uint64_t wq_l1 = out.writeQueueCapacities.empty()
                              ? 512
                              : out.writeQueueCapacities.front();
    std::uint64_t wq_l2 = out.writeQueueCapacities.size() > 1
                              ? out.writeQueueCapacities[1]
                              : (4ull << 10);
    return {wq_l1, wq_l2};
}

/** Scan the collected tail ratios for the wear-block collapse. */
void
finishTailAnalysis(PolicyProbe &out)
{
    double first_ratio = -1;
    for (const auto &pt : out.tailRatioCurve.points()) {
        if (first_ratio < 0)
            first_ratio = pt.y;
        if (out.wearBlockSize == 0 && first_ratio > 0 &&
            pt.y < 0.2 * first_ratio) {
            out.wearBlockSize = static_cast<std::uint64_t>(pt.x);
        }
    }
}

/** The largest block written to a single DIMM before striping
 *  helps is the interleave granularity. */
void
finishInterleaveAnalysis(PolicyProbe &out)
{
    std::uint64_t divergence = 0;
    for (std::size_t i = 0; i < out.seqWriteSingle.size(); ++i) {
        double t_int = out.seqWriteInterleaved[i].y;
        double t_one = out.seqWriteSingle[i].y;
        if (divergence == 0 && t_one > 1.15 * t_int)
            divergence =
                static_cast<std::uint64_t>(out.seqWriteSingle[i].x);
    }
    if (divergence > 512)
        out.interleaveGranularity = roundPow2(
            static_cast<double>(divergence - 512));
}

constexpr std::uint64_t ampBlockSweep[] = {64,   128,  256, 512,
                                           1024, 2048, 4096};

} // namespace

BufferProbe
runBufferProber(const SystemFactory &factory,
                const BufferProberParams &p, const SweepRunner &sweep)
{
    BufferProbe out;

    auto regions = logSweep(p.minRegion, p.maxRegion);

    // Warm once: page-granular read coverage of the whole sweep
    // span, captured at quiescence. Every stage below forks its
    // points from this one image in O(state) instead of re-warming
    // a fresh world per point (cold fallback when the system cannot
    // snapshot).
    auto ws = sweep.warmOnce(factory, [&p](MemorySystem &sys) {
        VANS_REQUIRE("lens", sys.eventQueue().curTick(),
                     p.base + p.maxRegion <= sys.capacity(),
                     "maxRegion %llu from base %#llx ends past the "
                     "%llu-byte capacity",
                     static_cast<unsigned long long>(p.maxRegion),
                     static_cast<unsigned long long>(p.base),
                     static_cast<unsigned long long>(sys.capacity()));
        warmCoverage(sys, {{p.base, p.maxRegion}});
    });

    // ---- Stage 1: both latency sweeps as one flat point batch ----
    struct LatDesc
    {
        std::uint64_t region;
        std::uint32_t block;
        std::uint64_t seed;
    };
    std::vector<LatDesc> lat;
    for (std::uint64_t region : regions)
        lat.push_back({region, 64, region});
    for (std::uint64_t region : regions) {
        if (region >= 256)
            lat.push_back({region, 256, region + 7});
    }

    auto lat_res = sweep.mapForked<LatPoint>(
        ws, lat.size(), [&](MemorySystem &sys, std::size_t i) {
            Driver drv(sys);
            return latencyPoint(drv, p, lat[i].region, lat[i].block,
                                lat[i].seed);
        });
    for (std::size_t i = 0; i < lat.size(); ++i) {
        double x = static_cast<double>(lat[i].region);
        if (lat[i].block == 64) {
            out.loadCurve.add(x, lat_res[i].ld);
            out.storeCurve.add(x, lat_res[i].st);
        } else {
            out.load256Curve.add(x, lat_res[i].ld);
            out.store256Curve.add(x, lat_res[i].st);
        }
    }

    finishBufferAnalysis(out, p);
    auto [cap_l1, cap_l2] = readCaps(out);

    // ---- Stage 2: RaW sweep (needs cap_l2 from stage 1) ----------
    std::vector<std::uint64_t> raw_regions;
    for (std::uint64_t region : regions) {
        if (region <= (cap_l2 * 4) && region >= 64)
            raw_regions.push_back(region);
    }
    auto raw_res = sweep.mapForked<double>(
        ws, raw_regions.size(), [&](MemorySystem &sys, std::size_t i) {
            Driver drv(sys);
            return rawPoint(drv, p.base, raw_regions[i]);
        });
    for (std::size_t i = 0; i < raw_regions.size(); ++i) {
        double x = static_cast<double>(raw_regions[i]);
        out.rawCurve.add(x, raw_res[i]);
        out.rwSumCurve.add(x, out.loadCurve.valueAt(x) +
                                  out.storeCurve.valueAt(x));
    }
    finishRawAnalysis(out, cap_l2);

    // ---- Stage 3: read + write amplification points --------------
    auto [wq_l1, wq_l2] = writeCaps(out);
    struct AmpDesc
    {
        bool write;
        bool level2;
        std::uint64_t block;
    };
    std::vector<AmpDesc> amps;
    for (std::uint64_t block : ampBlockSweep) {
        amps.push_back({false, false, block});
        amps.push_back({false, true, block});
    }
    for (std::uint64_t block : ampBlockSweep) {
        if (block <= wq_l2) {
            amps.push_back({true, false, block});
            amps.push_back({true, true, block});
        }
    }
    auto amp_res = sweep.mapForked<double>(
        ws, amps.size(),
        [&, cl1 = cap_l1, cl2 = cap_l2, wl1 = wq_l1,
         wl2 = wq_l2](MemorySystem &sys, std::size_t i) {
            const AmpDesc &d = amps[i];
            Driver drv(sys);
            if (d.write) {
                std::uint64_t fit = d.level2 ? wl2 / 2 : wl1 / 2;
                std::uint64_t ov = d.level2 ? wl2 * 4 : wl1 * 4;
                return writeAmpPoint(drv, p.base, fit, ov, d.block);
            }
            std::uint64_t fit = d.level2 ? cl2 / 2 : cl1 / 2;
            std::uint64_t ov =
                d.level2 ? cl2 * 4 : std::min(cl1 * 4, cl2 / 4);
            return readAmpPoint(drv, p.base, fit, ov, d.block);
        });
    for (std::size_t i = 0; i < amps.size(); ++i) {
        const AmpDesc &d = amps[i];
        double x = static_cast<double>(d.block);
        Curve &c = d.write ? (d.level2 ? out.writeAmpLsq
                                       : out.writeAmpWpq)
                           : (d.level2 ? out.readAmpL2
                                       : out.readAmpL1);
        c.add(x, amp_res[i]);
    }
    out.readEntrySizeL1 = ampKnee(out.readAmpL1);
    out.readEntrySizeL2 = ampKnee(out.readAmpL2);

    return out;
}

PolicyProbe
runPolicyProber(const SystemFactory &factory,
                const PolicyProberParams &p, const SweepRunner &sweep)
{
    PolicyProbe out;

    // Warm once: read coverage of every region the points will
    // overwrite. Read-only, so the forked points' wear counters
    // start from zero exactly as in the cold run -- the migration
    // tails are the signal and must not be pre-aged.
    auto ws = sweep.warmOnce(factory, [&p](MemorySystem &sys) {
        std::vector<std::pair<Addr, std::uint64_t>> spans;
        spans.emplace_back(p.base, 4096);
        for (std::size_t i = 0; i < p.tailRegions.size(); ++i) {
            Addr at = tailBase(p, i);
            VANS_REQUIRE("lens", sys.eventQueue().curTick(),
                         at + p.tailRegions[i] <= sys.capacity(),
                         "tailRegions[%zu] = %llu at %#llx ends past "
                         "the %llu-byte capacity",
                         i, static_cast<unsigned long long>(p.tailRegions[i]),
                         static_cast<unsigned long long>(at),
                         static_cast<unsigned long long>(sys.capacity()));
            spans.emplace_back(at, p.tailRegions[i]);
        }
        warmCoverage(sys, spans);
    });

    // The overwrite series is one long dependent run; the region
    // sweep fans out. Run the former as point 0 alongside the sweep.
    auto ratios = sweep.mapForked<double>(
        ws, p.tailRegions.size() + 1,
        [&](MemorySystem &sys, std::size_t i) {
            Driver drv(sys);
            if (i == 0) {
                analyzeOverwriteTail(drv, p, out);
                return 0.0;
            }
            return tailRatioPoint(drv, p, p.tailRegions[i - 1],
                                  i - 1);
        });
    for (std::size_t i = 0; i < p.tailRegions.size(); ++i) {
        out.tailRatioCurve.add(static_cast<double>(p.tailRegions[i]),
                               ratios[i + 1]);
    }
    finishTailAnalysis(out);

    return out;
}

void
runInterleaveProbe(const SystemFactory &interleavedFactory,
                   const SystemFactory &singleFactory,
                   PolicyProbe &out, std::uint64_t max_bytes,
                   const SweepRunner &sweep)
{
    std::vector<std::uint64_t> sizes;
    for (std::uint64_t bytes = 512; bytes <= max_bytes; bytes += 512)
        sizes.push_back(bytes);

    struct Pair
    {
        double interleaved = 0;
        double single = 0;
    };
    // Deliberately cold (no warm fork): the interleave detector's
    // signal is a fresh DIMM's WPQ absorbing a write burst, so every
    // point must start from untouched queues.
    auto res = sweep.map<Pair>(sizes.size(), [&](std::size_t i) {
        Pair pt;
        pt.interleaved =
            withFreshSystem(interleavedFactory, [&](Driver &d) {
                return seqWritePoint(d, sizes[i]);
            });
        pt.single = withFreshSystem(singleFactory, [&](Driver &d) {
            return seqWritePoint(d, sizes[i]);
        });
        return pt;
    });
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        out.seqWriteInterleaved.add(static_cast<double>(sizes[i]),
                                    res[i].interleaved);
        out.seqWriteSingle.add(static_cast<double>(sizes[i]),
                               res[i].single);
    }
    finishInterleaveAnalysis(out);
}

PerfProbe
runPerfProber(Driver &drv, const BufferProbe &buffers, Addr base)
{
    PerfProbe out;

    std::uint64_t seq_lines = 32768;
    out.seqReadGbps =
        stride(drv, base, seq_lines, cacheLineSize, false, 16)
            .gbPerSec;
    out.seqWriteGbps =
        stride(drv, base, seq_lines, cacheLineSize, true, 16).gbPerSec;
    drv.fence();

    // Random: one line per 4KB page over a large span defeats every
    // buffer level.
    std::uint64_t span_pages = 16384;
    auto order = chaseOrder(base, span_pages * 4096, 4096, 16384, 99);
    Tick t = drv.streamReads(order, 16);
    double bytes = static_cast<double>(order.size()) * cacheLineSize;
    out.randReadGbps = bytes / (ticksToNs(t) * 1e-9) / 1e9;
    t = drv.streamWrites(order, 16);
    drv.fence();
    out.randWriteGbps = bytes / (ticksToNs(t) * 1e-9) / 1e9;

    out.levelLatenciesNs = buffers.levelLatenciesNs;
    return out;
}

} // namespace vans::lens
