/**
 * @file
 * Reproduces Fig 12: the cloud-workload inefficiency profile.
 *
 *  (a) Redis: read operations dominate the execution overhead --
 *      the CPI of reads is several times the rest, driven by LLC
 *      and TLB misses from the pointer-chasing access pattern.
 *  (b) YCSB: writes concentrate on a handful of hot cache lines
 *      ("Top10"), which trigger disproportionately more
 *      wear-leveling activity and raise average write cost.
 */

#include <algorithm>
#include <map>

#include "bench/bench_util.hh"
#include "cache/hierarchy.hh"
#include "cpu/core.hh"
#include "nvram/vans_system.hh"
#include "workloads/cloud.hh"

using namespace vans;
using namespace vans::bench;

int
main(int argc, char **argv)
{
    banner("Figure 12", "Redis and YCSB profiling on VANS");

    // Optional config-file path: both workloads run against this
    // base, so `bench_fig12 configs/optane_memory_mode.cfg` profiles
    // the cloud workloads in Memory mode (2LM) from config alone.
    nvram::NvramConfig base = nvram::NvramConfig::optaneDefault();
    if (argc > 1) {
        base = nvram::NvramConfig::fromFile(argv[1]);
        std::printf("config: %s (%s mode)\n", argv[1],
                    base.memoryMode() ? "memory" : "app_direct");
    }
    const bool mm = base.memoryMode();

    // ---- (a) Redis read attribution ---------------------------------
    EventQueue eq_r;
    nvram::VansSystem sys_r(eq_r, base);
    cache::Hierarchy caches_r;
    cpu::CpuCore core_r(sys_r, caches_r);
    workloads::CloudParams rp;
    rp.operations = 6000;
    rp.footprintBytes = 512 << 20;
    auto redis = workloads::redisTrace(rp);
    trace::VectorTraceSource src_r(std::move(redis));
    auto st = core_r.run(src_r, 1u << 30);

    double read_ns_per_inst =
        st.readStallNs / std::max<double>(st.memReads, 1);
    double rest_ns_per_inst =
        st.otherNs /
        std::max<double>(st.instructions - st.memReads, 1);
    double cpi_ratio = read_ns_per_inst / rest_ns_per_inst;

    std::printf("\n(a) Redis: per-instruction cost attribution\n");
    TextTable ta({"metric", "read-ops", "rest"});
    ta.addRow({"ns/inst", fmtDouble(read_ns_per_inst, 1),
               fmtDouble(rest_ns_per_inst, 2)});
    ta.addRow({"normalized CPI", fmtDouble(cpi_ratio, 1), "1.0"});
    std::printf("%s", ta.render().c_str());
    std::printf("LLC MPKI %.1f, TLB MPKI %.1f\n\n", st.llcMpki,
                st.tlbMpki);

    check("read CPI several times the rest (paper: 8.8x)",
          cpi_ratio > 4.0);
    check("reads miss the LLC heavily (pointer chasing)",
          st.llcMpki > 5.0);
    check("reads miss the TLB heavily (random pages)",
          st.tlbMpki > 5.0);

    // ---- (b) YCSB write concentration --------------------------------
    workloads::CloudParams yp;
    yp.operations = 12000;
    yp.footprintBytes = 256 << 20;
    auto ycsb = workloads::ycsbTrace(yp);

    // Static concentration analysis of the write stream.
    std::map<Addr, std::uint64_t> writes_per_line;
    std::uint64_t total_writes = 0;
    for (const auto &i : ycsb) {
        if (i.type == trace::InstType::Store) {
            ++writes_per_line[alignDown(i.addr, 64)];
            ++total_writes;
        }
    }
    std::vector<std::uint64_t> counts;
    for (auto &kv : writes_per_line)
        counts.push_back(kv.second);
    std::sort(counts.rbegin(), counts.rend());
    std::uint64_t top10 = 0;
    for (std::size_t i = 0; i < 10 && i < counts.size(); ++i)
        top10 += counts[i];
    double top10_frac =
        static_cast<double>(top10) / static_cast<double>(total_writes);
    double top10_mean = static_cast<double>(top10) / 10.0;
    double rest_mean =
        static_cast<double>(total_writes - top10) /
        std::max<double>(static_cast<double>(counts.size()) - 10, 1);

    // Dynamic wear effect on VANS (reduced threshold for runtime).
    nvram::NvramConfig wcfg = base;
    wcfg.wearThreshold = 600;
    EventQueue eq_y;
    nvram::VansSystem sys_y(eq_y, wcfg);
    cache::Hierarchy caches_y;
    cpu::CpuCore core_y(sys_y, caches_y);
    trace::VectorTraceSource src_y(std::move(ycsb));
    core_y.run(src_y, 1u << 30);

    std::printf("(b) YCSB write concentration\n");
    TextTable tb({"metric", "Top10 lines", "rest"});
    tb.addRow({"share of writes",
               fmtDouble(top10_frac * 100, 1) + "%",
               fmtDouble((1 - top10_frac) * 100, 1) + "%"});
    tb.addRow({"writes per line (x rest)",
               fmtDouble(top10_mean / std::max(rest_mean, 1e-9), 0),
               "1"});
    std::printf("%s", tb.render().c_str());
    std::printf("wear migrations on VANS: %llu (threshold %llu)\n\n",
                static_cast<unsigned long long>(
                    sys_y.totalMigrations()),
                static_cast<unsigned long long>(wcfg.wearThreshold));

    check("Top10 lines are written >50x more than the average line "
          "(paper: >100x)",
          top10_mean / std::max(rest_mean, 1e-9) > 50);
    check("hot writes trigger wear-leveling migrations",
          sys_y.totalMigrations() >= 1);
    if (mm) {
        // YCSB persists every store (store + clwb + fence), so the
        // hot lines reach the media as write-throughs that punch
        // through the volatile DRAM cache -- which is why the wear
        // check above holds in Memory mode too: durability traffic
        // keeps its App Direct path.
        check("persist-kind writes punch through the volatile cache",
              sys_y.dcacheScalarSum("writethroughs") > 0);
    }
    return finish();
}
