/**
 * @file
 * Reproduces Fig 13(d,e): the Lazy-cache and Pre-translation case
 * studies across the six workloads (fio-write, YCSB, TPCC, HashMap,
 * Redis, LinkedList).
 *
 * Four configurations per workload: baseline, Lazy cache,
 * Pre-translation, both. Reported: speedup over baseline (13d) and
 * normalized TLB MPKI under Pre-translation (13e).
 */

#include "bench/bench_util.hh"
#include "cache/hierarchy.hh"
#include "common/sweep.hh"
#include "cpu/core.hh"
#include "nvram/vans_system.hh"
#include "opt/lazy_cache.hh"
#include "opt/pretranslation.hh"
#include "workloads/cloud.hh"

using namespace vans;
using namespace vans::bench;

namespace
{

struct RunOut
{
    Tick elapsed = 0;
    double tlbMpki = 0;
};

RunOut
run(const std::string &wl, bool lazy_on, bool pretrans_on)
{
    nvram::NvramConfig cfg = nvram::NvramConfig::optaneDefault();
    // Reduced threshold keeps wear-leveling active within bench
    // runtimes (the effect scales with the threshold).
    cfg.wearThreshold = 800;
    EventQueue eq;
    nvram::VansSystem sys(eq, cfg);
    cache::Hierarchy caches;
    cpu::CpuCore core(sys, caches);

    opt::LazyCache lazy;
    if (lazy_on)
        lazy.attach(sys.dimm(0));
    opt::PreTranslation pt;
    if (pretrans_on)
        pt.attach(core);

    workloads::CloudParams p;
    p.operations = 5000;
    p.footprintBytes = 256 << 20;
    p.preTranslationHints = true; // mkpt is a no-op when detached.
    auto insts = workloads::cloudTrace(wl, p);
    trace::VectorTraceSource src(std::move(insts));
    auto st = core.run(src, 1u << 30);
    return {st.elapsed, st.tlbMpki};
}

} // namespace

int
main()
{
    banner("Figure 13", "Lazy cache + Pre-translation speedups");

    const std::vector<std::string> workloads_list = {
        "fio-write", "ycsb", "tpcc", "hashmap", "redis",
        "linkedlist"};

    TextTable t({"workload", "lazy", "pretrans", "both",
                 "tlb-mpki (pretrans/base)"});
    double lazy_gain_on_writes = 0;
    double pt_gain_on_chases = 0;
    double worst_both = 10;
    double mpki_reduction_sum = 0;

    // Every (workload, configuration) run is an independent world;
    // run i is workload i / 4 with Lazy cache on i & 1 and
    // Pre-translation on i & 2.
    auto runs = SweepRunner().map<RunOut>(
        workloads_list.size() * 4, [&](std::size_t i) {
            return run(workloads_list[i / 4], (i & 1) != 0,
                       (i & 2) != 0);
        });

    for (std::size_t w = 0; w < workloads_list.size(); ++w) {
        const std::string &wl = workloads_list[w];
        const RunOut &base = runs[w * 4];
        const RunOut &lazy = runs[w * 4 + 1];
        const RunOut &pt = runs[w * 4 + 2];
        const RunOut &both = runs[w * 4 + 3];

        double sp_lazy = static_cast<double>(base.elapsed) /
                         static_cast<double>(lazy.elapsed);
        double sp_pt = static_cast<double>(base.elapsed) /
                       static_cast<double>(pt.elapsed);
        double sp_both = static_cast<double>(base.elapsed) /
                         static_cast<double>(both.elapsed);
        double mpki_ratio =
            base.tlbMpki > 0 ? pt.tlbMpki / base.tlbMpki : 1.0;

        t.addRow({wl, fmtDouble(sp_lazy), fmtDouble(sp_pt),
                  fmtDouble(sp_both), fmtDouble(mpki_ratio)});

        if (wl == "ycsb" || wl == "fio-write")
            lazy_gain_on_writes = std::max(lazy_gain_on_writes,
                                           sp_lazy);
        if (wl == "linkedlist" || wl == "redis" || wl == "hashmap")
            pt_gain_on_chases = std::max(pt_gain_on_chases, sp_pt);
        worst_both = std::min(worst_both, sp_both);
        mpki_reduction_sum += 1.0 - mpki_ratio;
    }

    std::printf("\n(speedup over unmodified baseline; tlb column is "
                "Fig 13e)\n\n%s\n",
                t.render().c_str());

    check("Lazy cache speeds up a write-hot workload",
          lazy_gain_on_writes > 1.02);
    check("Pre-translation speeds up a pointer-chasing workload "
          "(paper: up to 48%)",
          pt_gain_on_chases > 1.02);
    check("combining both never breaks a workload (>= 0.97x)",
          worst_both > 0.97);
    check("Pre-translation cuts TLB MPKI on average (paper: 17%)",
          mpki_reduction_sum /
                  static_cast<double>(workloads_list.size()) >
              0.05);
    return finish();
}
