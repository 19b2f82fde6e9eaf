/**
 * @file
 * Reproduces Fig 9: VANS validation against the Optane DIMM
 * reference.
 *
 *  (a) Pointer-chasing load/store latency, 1 non-interleaved DIMM,
 *      vs the digitized Optane reference curve.
 *  (b) Same on 6 interleaved DIMMs (buffering effects postponed).
 *  (c) RMW-buffer read amplification from VANS's own counters vs
 *      the analytic expectation (substitute for Intel's in-house
 *      counter tool).
 *  (d) 256B-overwrite tail latency: interval and magnitude.
 *  (e) Accuracy summary across the four metrics.
 */

#include "bench/bench_util.hh"
#include "common/sweep.hh"
#include "lens/microbench.hh"
#include "lens/probers.hh"
#include "nvram/vans_system.hh"

using namespace vans;
using namespace vans::bench;

namespace
{

std::pair<Curve, Curve>
latencyCurves(const SystemFactory &factory, const SweepRunner &sweep,
              const std::vector<std::uint64_t> &regions,
              const char *suffix)
{
    struct Pt
    {
        double ld = 0;
        double st = 0;
    };
    // Warm once (read coverage of the full span), fork every region
    // point from the captured image.
    std::uint64_t span = regions.back();
    auto pts = sweep.mapFromWarm<Pt>(
        factory,
        [span](MemorySystem &sys) { warmSpan(sys, 0, span); },
        regions.size(), [&](MemorySystem &sys, std::size_t i) {
            lens::Driver drv(sys);
            lens::PtrChaseParams pc;
            pc.regionBytes = regions[i];
            pc.warmupLines = 9000;
            pc.measureLines = 2500;
            pc.seed = regions[i];
            pc.coverageWarm = true;
            Pt out;
            out.ld = lens::ptrChase(drv, pc).nsPerLine;
            pc.writeMode = true;
            out.st = lens::ptrChase(drv, pc).nsPerLine;
            drv.fence();
            return out;
        });
    Curve ld(std::string("VANS-ld") + suffix);
    Curve st(std::string("VANS-st") + suffix);
    for (std::size_t i = 0; i < regions.size(); ++i) {
        ld.add(static_cast<double>(regions[i]), pts[i].ld);
        st.add(static_cast<double>(regions[i]), pts[i].st);
    }
    return {ld, st};
}

} // namespace

int
main(int argc, char **argv)
{
    banner("Figure 9", "VANS validation with microbenchmarks");

    // Optional config-file path: every section builds its worlds
    // from this base, so `bench_fig09 configs/optane_memory_mode.cfg`
    // reruns the whole validation in Memory mode (2LM) from config
    // alone. App Direct remains the default.
    nvram::NvramConfig base = nvram::NvramConfig::optaneDefault();
    if (argc > 1) {
        base = nvram::NvramConfig::fromFile(argv[1]);
        std::printf("config: %s (%s mode)\n\n", argv[1],
                    base.memoryMode() ? "memory" : "app_direct");
    }
    const bool mm = base.memoryMode();

    auto regions = logSweep(64, 128ull << 20, 2);
    SweepRunner sweep;

    // ---- (a) 1 DIMM --------------------------------------------------
    SystemFactory one = [base](EventQueue &eq) {
        return std::make_unique<nvram::VansSystem>(eq, base);
    };
    auto [ld1, st1] = latencyCurves(one, sweep, regions, "");
    auto ld_ref = optaneLoadReference(regions);
    auto st_ref = optaneStoreReference(regions);

    std::printf("\n(a) non-interleaved DIMM, latency per CL (ns)\n");
    printCurves({ld1, ld_ref, st1, st_ref}, "region");

    double acc_ld = ld1.accuracyAgainst(ld_ref);
    double acc_st = st1.accuracyAgainst(st_ref);
    if (!mm) {
        check("load curve accuracy > 80% vs reference",
              acc_ld > 0.80);
        check("store curve within 2x of reference everywhere "
              "(small sizes dominated by core-side costs, paper "
              "section IV-C)",
              acc_st > 0.35);
    } else {
        // The Optane reference curves characterize App Direct;
        // Memory mode is validated against 2LM shape expectations
        // instead: near-memory hits beat the App Direct reference,
        // and capacity misses fall back toward NVM latency.
        check("cached regions complete below the App Direct "
              "reference (memory mode)",
              ld1.valueAt(64 << 10) < ld_ref.valueAt(64 << 10));
        check("regions beyond the DRAM cache fall back toward "
              "NVM latency",
              ld1.valueAt(128ull << 20) >
                  1.5 * ld1.valueAt(64 << 10));
    }

    // ---- (b) 6 interleaved DIMMs --------------------------------------
    SystemFactory six = [base](EventQueue &eq) {
        nvram::NvramConfig cfg = base;
        cfg.numDimms = 6;
        cfg.interleaved = true;
        return std::make_unique<nvram::VansSystem>(eq, cfg, "vans6");
    };
    auto [ld6, st6] = latencyCurves(six, sweep, regions, "-6d");

    std::printf("(b) 6 interleaved DIMMs, latency per CL (ns)\n");
    printCurves({ld6, st6}, "region");
    if (!mm) {
        check("interleaving postpones the read buffering effect",
              ld6.valueAt(64 << 10) < ld1.valueAt(64 << 10));
        check("interleaving reduces large-region store latency",
              st6.valueAt(1 << 20) < st1.valueAt(1 << 20));
    } else {
        // Six channels bring six DRAM caches: the 128MB region that
        // thrashes one 64MB cache fits the interleaved aggregate.
        check("interleaving multiplies near-memory capacity",
              ld6.valueAt(128ull << 20) < ld1.valueAt(128ull << 20));
    }

    // ---- (c) RMW read amplification -----------------------------------
    std::printf("(c) RMW-buffer read amplification "
                "(VANS counters vs analytic)\n");
    Curve amp_sim("vans-counter");
    Curve amp_ref("analytic");
    const std::vector<std::uint32_t> amp_blocks = {64, 128, 256,
                                                   1024, 4096};
    // Deliberately cold (no warm fork): this sweep reads the RMW
    // buffer's hit/miss counters, and a restored snapshot carries the
    // warm phase's counts with it -- the ratio must only see the
    // point's own accesses.
    auto amp_vals = sweep.map<double>(
        amp_blocks.size(), [&](std::size_t i) {
            std::uint32_t block = amp_blocks[i];
            EventQueue eq;
            nvram::VansSystem sys(eq, base);
            lens::Driver drv(sys);
            lens::PtrChaseParams pc;
            pc.regionBytes = 1 << 20; // Overflows RMW, fits AIT.
            pc.blockBytes = block;
            pc.mlp = 8;
            pc.warmupLines = 4000;
            pc.measureLines = 4000;
            lens::ptrChase(drv, pc);
            auto &rmw = sys.dimm(0).rmw().stats();
            double misses =
                static_cast<double>(rmw.scalarValue("read_misses"));
            double hits =
                static_cast<double>(rmw.scalarValue("read_hits"));
            // Amplification: bytes fetched (256B per miss) per byte
            // demanded (64B per access).
            return (misses * 256.0) / ((misses + hits) * 64.0);
        });
    for (std::size_t i = 0; i < amp_blocks.size(); ++i) {
        amp_sim.add(amp_blocks[i], amp_vals[i]);
        amp_ref.add(amp_blocks[i],
                    256.0 / std::min<std::uint32_t>(amp_blocks[i],
                                                    256));
    }
    printCurves({amp_sim, amp_ref}, "PC-Block");
    check("counter amplification tracks the analytic model "
          "within 15%",
          amp_sim.accuracyAgainst(amp_ref) > 0.85);
    check("64B blocks amplify ~4x at the RMW buffer",
          amp_sim.valueAt(64) > 3.0);

    // ---- (d) overwrite tail --------------------------------------------
    SystemFactory wfac = [base](EventQueue &eq) {
        nvram::NvramConfig wcfg = base;
        wcfg.wearThreshold = 3500;
        return std::make_unique<nvram::VansSystem>(eq, wcfg);
    };
    lens::PolicyProberParams pp;
    pp.overwriteIterations = 12000;
    pp.tailRegions = {};
    auto probe = lens::runPolicyProber(wfac, pp, sweep);
    std::printf("(d) overwrite tail: %.1f us every ~%.0f writes "
                "(normal %.0f ns)\n\n",
                probe.tailLatencyUs, probe.tailIntervalWrites,
                probe.normalWriteNs);
    check("tail interval matches the planted threshold",
          std::abs(probe.tailIntervalWrites - 3500) < 350);
    check("tail magnitude matches the 50us migration within 30%",
          std::abs(probe.tailLatencyUs - 50) < 15);

    // ---- (e) summary ----------------------------------------------------
    std::printf("(e) accuracy summary\n");
    TextTable t({"metric", "accuracy"});
    t.addRow({"lat-ld", fmtDouble(acc_ld)});
    t.addRow({"lat-st", fmtDouble(acc_st)});
    t.addRow({"rmw-amp", fmtDouble(amp_sim.accuracyAgainst(amp_ref))});
    std::printf("%s\n", t.render().c_str());

    return finish();
}
