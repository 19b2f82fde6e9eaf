/**
 * @file
 * Ablation bench: the design choices DESIGN.md calls out, each
 * isolated by toggling one mechanism.
 *
 *  1. LSQ write combining on/off: combining is what keeps
 *     sequential NT-store bandwidth media-friendly (256B writes, no
 *     RMW fills).
 *  2. Interleave granularity sweep (1K/4K/16K): 4KB matches the
 *     LSQ/AIT-entry sizing (paper section III-D's rationale).
 *  3. Media partitions (2/6/12): internal parallelism sets the
 *     random-read plateau.
 *  4. Wear threshold sweep: migration interval tracks it linearly.
 */

#include "bench/bench_util.hh"
#include "lens/microbench.hh"
#include "lens/probers.hh"
#include "nvram/vans_system.hh"

using namespace vans;
using namespace vans::bench;

int
main()
{
    banner("Ablations", "design-choice sensitivity studies");

    // ---- 1. LSQ write combining ---------------------------------------
    auto seq_write = [](double epoch_ns) {
        nvram::NvramConfig cfg = nvram::NvramConfig::optaneDefault();
        cfg.lsqEpochNs = epoch_ns;
        EventQueue eq;
        nvram::VansSystem sys(eq, cfg);
        lens::Driver drv(sys);
        std::vector<Addr> addrs;
        for (Addr a = 0; a < (1 << 20); a += 64)
            addrs.push_back(a);
        Tick t = drv.streamWrites(addrs, 16, 3.0);
        drv.fence();
        double gbps = static_cast<double>(addrs.size()) * 64 /
                      (ticksToNs(t) * 1e-9) / 1e9;
        return std::pair<double, std::uint64_t>(
            gbps, sys.totalRmwFills());
    };
    auto [bw_on, fills_on] = seq_write(600);
    auto [bw_off, fills_off] = seq_write(0);
    std::printf("\n1. LSQ write combining (sequential NT stores, "
                "1MB)\n");
    TextTable t1({"combining", "GB/s", "RMW fills"});
    t1.addRow({"on (600ns epoch)", fmtDouble(bw_on),
               std::to_string(fills_on)});
    t1.addRow({"off (0ns epoch)", fmtDouble(bw_off),
               std::to_string(fills_off)});
    std::printf("%s\n", t1.render().c_str());
    check("combining removes RMW fills on sequential writes",
          fills_on < fills_off / 4 + 1);
    check("combining sustains >= the uncombined bandwidth",
          bw_on >= bw_off * 0.95);

    // ---- 2. Interleave granularity --------------------------------------
    std::printf("2. interleave granularity (6 DIMMs, 16KB seq "
                "write)\n");
    TextTable t2({"granularity", "exec time (us)"});
    double best_time = 1e18;
    std::uint64_t best_gran = 0;
    for (std::uint64_t gran : {1024ull, 4096ull, 16384ull}) {
        nvram::NvramConfig cfg = nvram::NvramConfig::optaneDefault();
        cfg.numDimms = 6;
        cfg.interleaved = true;
        cfg.interleaveBytes = gran;
        EventQueue eq;
        nvram::VansSystem sys(eq, cfg);
        lens::Driver drv(sys);
        std::vector<Addr> addrs;
        for (Addr a = 0; a < 16384; a += 64)
            addrs.push_back(a);
        Tick t = drv.streamWrites(addrs, 32, 3.0);
        drv.fence();
        double us = ticksToNs(t) / 1000.0;
        t2.addRow({formatSize(gran), fmtDouble(us)});
        if (us < best_time) {
            best_time = us;
            best_gran = gran;
        }
    }
    std::printf("%s\n", t2.render().c_str());
    check("fine granularity beats coarse for a 16KB burst "
          "(more DIMMs engaged)",
          best_gran <= 4096);

    // ---- 3. Media partitions ---------------------------------------------
    std::printf("3. media partitions (random 64B reads over "
                "256MB)\n");
    TextTable t3({"partitions", "ns/line"});
    double lat2 = 0, lat12 = 0;
    for (unsigned parts : {2u, 6u, 12u}) {
        nvram::NvramConfig cfg = nvram::NvramConfig::optaneDefault();
        cfg.mediaPartitions = parts;
        EventQueue eq;
        nvram::VansSystem sys(eq, cfg);
        lens::Driver drv(sys);
        lens::PtrChaseParams pc;
        pc.regionBytes = 256ull << 20;
        pc.warmupLines = 3000;
        pc.measureLines = 2000;
        double ns = lens::ptrChase(drv, pc).nsPerLine;
        t3.addRow({std::to_string(parts), fmtDouble(ns, 1)});
        if (parts == 2)
            lat2 = ns;
        if (parts == 12)
            lat12 = ns;
    }
    std::printf("%s\n", t3.render().c_str());
    check("more partitions lower the media-regime latency",
          lat12 < lat2);

    // ---- 4. Wear threshold ---------------------------------------------
    std::printf("4. wear threshold vs migration interval\n");
    TextTable t4({"threshold", "measured interval (writes)"});
    bool linear = true;
    for (std::uint64_t thr : {1000ull, 2000ull, 4000ull}) {
        SystemFactory factory = [thr](EventQueue &eq) {
            nvram::NvramConfig cfg =
                nvram::NvramConfig::optaneDefault();
            cfg.wearThreshold = thr;
            return std::make_unique<nvram::VansSystem>(eq, cfg);
        };
        lens::PolicyProberParams pp;
        pp.overwriteIterations = thr * 4;
        pp.tailRegions = {};
        auto probe = lens::runPolicyProber(factory, pp);
        t4.addRow({std::to_string(thr),
                   fmtDouble(probe.tailIntervalWrites, 0)});
        if (std::abs(probe.tailIntervalWrites -
                     static_cast<double>(thr)) >
            0.15 * static_cast<double>(thr))
            linear = false;
    }
    std::printf("%s\n", t4.render().c_str());
    check("migration interval tracks the threshold linearly",
          linear);

    return finish();
}
