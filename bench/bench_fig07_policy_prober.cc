/**
 * @file
 * Reproduces Fig 7: the LENS policy prober.
 *
 *  (a) Sequential-write execution time, interleaved (6 DIMM) vs
 *      non-interleaved: identical up to 4KB, diverging beyond -- the
 *      4KB multi-DIMM interleave granularity.
 *  (b) 256B overwrite tail latency: a >10-100x spike every
 *      ~14,000 iterations (wear-leveling migration).
 *  (c) The tail ratio collapses once the overwrite region spans more
 *      than one 64KB wear block.
 *  (d) TLB miss rate stays flat during the overwrite (rules the TLB
 *      out).
 */

#include "bench/bench_util.hh"
#include "cache/tlb.hh"
#include "common/sweep.hh"
#include "lens/probers.hh"
#include "nvram/vans_system.hh"

using namespace vans;
using namespace vans::bench;

int
main()
{
    banner("Figure 7", "LENS policy prober on VANS");

    // ---- (a) interleaving ------------------------------------------
    // The interleave detector runs against the shipped 6-DIMM socket
    // file, not a hand-edited default.
    const nvram::NvramConfig six = nvram::NvramConfig::fromFile(
        VANS_SOURCE_DIR "/configs/optane_6dimm_interleaved.cfg");
    SweepRunner sweep;
    SystemFactory factory_i = [six](EventQueue &eq) {
        return std::make_unique<nvram::VansSystem>(eq, six, "vans-6dimm");
    };
    SystemFactory factory_s = [](EventQueue &eq) {
        return std::make_unique<nvram::VansSystem>(
            eq, nvram::NvramConfig::optaneDefault(), "vans-1dimm");
    };

    lens::PolicyProbe il;
    lens::runInterleaveProbe(factory_i, factory_s, il, 16384, sweep);

    std::printf("\n(a) sequential write execution time (us)\n");
    // Sample every 4th point to keep the table readable.
    Curve ci("interleaved"), cs("non-interleaved");
    for (std::size_t i = 0; i < il.seqWriteInterleaved.size(); i += 4) {
        ci.add(il.seqWriteInterleaved[i].x,
               il.seqWriteInterleaved[i].y);
        cs.add(il.seqWriteSingle[i].x, il.seqWriteSingle[i].y);
    }
    printCurves({ci, cs}, "bytes");
    std::printf("detected interleave granularity: %s\n\n",
                formatSize(il.interleaveGranularity).c_str());
    check("first 4KB identical (single DIMM either way)",
          il.seqWriteSingle.valueAt(4096) <
              il.seqWriteInterleaved.valueAt(4096) * 1.2);
    check("interleaved wins beyond 4KB",
          il.seqWriteSingle.valueAt(12288) >
              il.seqWriteInterleaved.valueAt(12288) * 1.2);
    check("detected granularity = 4KB",
          il.interleaveGranularity == 4096);

    // ---- (b) overwrite tail -----------------------------------------
    // A reduced wear threshold keeps the bench quick; the interval
    // scales linearly (ablation bench sweeps it).
    SystemFactory factory_w = [](EventQueue &eq) {
        nvram::NvramConfig cfg = nvram::NvramConfig::optaneDefault();
        cfg.wearThreshold = 3500; // 1/4 of the characterized 14000.
        return std::make_unique<nvram::VansSystem>(eq, cfg);
    };

    lens::PolicyProberParams pp;
    pp.overwriteIterations = 16000;
    pp.tailRegions = {256, 4096, 32768, 131072, 524288};
    pp.tailSweepBytes = 6ull << 20;
    auto probe = lens::runPolicyProber(factory_w, pp, sweep);

    std::printf("(b) 256B overwrite: iteration latency series\n");
    std::printf("  normal write: %.0f ns, tail: %.1f us, interval: "
                "%.0f writes\n",
                probe.normalWriteNs, probe.tailLatencyUs,
                probe.tailIntervalWrites);
    // Print a down-sampled series around the first tail.
    std::size_t first_tail = 0;
    for (std::size_t i = 0; i < probe.overwriteIterationNs.size();
         ++i) {
        if (probe.overwriteIterationNs[i] >
            8 * probe.normalWriteNs) {
            first_tail = i;
            break;
        }
    }
    for (std::size_t i = first_tail > 3 ? first_tail - 3 : 0;
         i < first_tail + 3 && i < probe.overwriteIterationNs.size();
         ++i) {
        std::printf("  iter %6zu: %10.0f ns%s\n", i,
                    probe.overwriteIterationNs[i],
                    probe.overwriteIterationNs[i] >
                            8 * probe.normalWriteNs
                        ? "   <-- migration stall"
                        : "");
    }
    std::printf("\n");

    check("tail latency >10x the normal write",
          probe.tailLatencyUs * 1000 > 10 * probe.normalWriteNs);
    check("tail interval tracks the wear threshold (~3500 writes)",
          probe.tailIntervalWrites > 3000 &&
              probe.tailIntervalWrites < 4000);
    check("tail magnitude ~= the 50us migration",
          probe.tailLatencyUs > 25 && probe.tailLatencyUs < 75);

    // ---- (c) tail ratio vs region size ------------------------------
    std::printf("(c) long-tail ratio vs overwrite region size\n");
    printCurves({probe.tailRatioCurve}, "region");
    check("ratio collapses once the region spans >1 wear block",
          probe.tailRatioCurve.points().back().y <
              0.35 * probe.tailRatioCurve.points().front().y);
    check("LENS identifies a <=128KB wear block",
          probe.wearBlockSize > 0 &&
              probe.wearBlockSize <= (128u << 10));

    // ---- (d) TLB stability -------------------------------------------
    cache::Tlb tlb(cache::TlbParams{});
    Curve tlb_curve("walks-per-1000-writes");
    for (int win = 0; win < 8; ++win) {
        std::uint64_t w0 = tlb.stats().scalarValue("walks");
        for (int i = 0; i < 1000; ++i)
            tlb.access(static_cast<Addr>(i % 4) * 64);
        tlb_curve.add(win, static_cast<double>(
                               tlb.stats().scalarValue("walks") - w0));
    }
    std::printf("(d) TLB walks per 1000 overwrite accesses, by "
                "window\n");
    check("TLB miss rate flat during overwrite (no walk spikes)",
          tlb_curve.maxY() - tlb_curve.minY() <= 1.0);

    return finish();
}
