/**
 * @file
 * Reproduces Fig 3: conventional memory simulators cannot match
 * Optane DIMM behaviour.
 *
 *  (a) Average accuracy of DRAMSim2-style (DDR3, FCFS),
 *      Ramulator-DDR4 and Ramulator-PCM models against the Optane
 *      reference on four metrics: load/store latency and load/store
 *      bandwidth across access-region sizes. VANS is shown alongside
 *      (its Fig 9e validation run).
 *  (b) Ramulator-PCM vs VANS pointer-chasing read latency curve.
 */

#include <memory>

#include "baselines/dram_system.hh"
#include "bench/bench_util.hh"
#include "common/sweep.hh"
#include "lens/driver.hh"
#include "lens/microbench.hh"
#include "nvram/vans_system.hh"

using namespace vans;
using namespace vans::bench;

namespace
{

struct Metrics
{
    Curve latLd{"lat-ld"};
    Curve latSt{"lat-st"};
    Curve bwLd{"bw-ld"};
    Curve bwSt{"bw-st"};
};

Metrics
measure(MemorySystem &mem, const std::vector<std::uint64_t> &regions)
{
    lens::Driver drv(mem);
    Metrics m;
    for (std::uint64_t region : regions) {
        lens::PtrChaseParams pc;
        pc.regionBytes = region;
        pc.warmupLines = 8000;
        pc.measureLines = 2500;
        pc.seed = region;
        m.latLd.add(static_cast<double>(region),
                    lens::ptrChase(drv, pc).nsPerLine);
        pc.writeMode = true;
        m.latSt.add(static_cast<double>(region),
                    lens::ptrChase(drv, pc).nsPerLine);
        drv.fence();
        // Bandwidth: one overlapped pass over the region (short
        // bursts are latency-bound; large spans reach the sustained
        // rate).
        std::vector<Addr> addrs;
        for (Addr a = 0; a < region; a += 64)
            addrs.push_back(a);
        double rd_gbps =
            static_cast<double>(addrs.size()) * 64 /
            (ticksToNs(drv.streamReads(addrs, 10)) * 1e-9) / 1e9;
        double wr_gbps =
            static_cast<double>(addrs.size()) * 64 /
            (ticksToNs(drv.streamWrites(addrs, 16, 3.0)) * 1e-9) /
            1e9;
        drv.fence();
        m.bwLd.add(static_cast<double>(region), rd_gbps);
        m.bwSt.add(static_cast<double>(region), wr_gbps);
    }
    return m;
}

/** The Optane bandwidth references for a single-pass sweep over one
 *  non-interleaved DIMM (approximate): short bursts are latency-
 *  bound, sustained sequential reads ~2.4 GB/s and NT stores
 *  ~2 GB/s single-thread (Izraelevitz et al.'s measurements). */
Curve
bwLdReference(const std::vector<std::uint64_t> &regions)
{
    Curve c("optane-bw-ld(ref)");
    for (auto r : regions) {
        // Short bursts run at the MLP-limited rate (~10 lines in
        // flight against the ~175ns round trip), long spans settle
        // at the sustained single-thread sequential rate.
        double y = r <= (16u << 10) ? 3.4
                   : r <= (256u << 10) ? 2.8
                                       : 2.4;
        c.add(static_cast<double>(r), y);
    }
    return c;
}

Curve
bwStReference(const std::vector<std::uint64_t> &regions)
{
    Curve c("optane-bw-st(ref)");
    for (auto r : regions) {
        double y = r <= (16u << 10) ? 1.6 : 2.0;
        c.add(static_cast<double>(r), y);
    }
    return c;
}

double
avgAccuracy(const Metrics &m, const std::vector<std::uint64_t> &rs)
{
    double a = m.latLd.accuracyAgainst(optaneLoadReference(rs)) +
               m.latSt.accuracyAgainst(optaneStoreReference(rs)) +
               m.bwLd.accuracyAgainst(bwLdReference(rs)) +
               m.bwSt.accuracyAgainst(bwStReference(rs));
    return a / 4.0;
}

} // namespace

int
main()
{
    banner("Figure 3",
           "conventional simulators vs Optane reference accuracy");

    auto regions = logSweep(4096, 64ull << 20, 4);

    struct Row
    {
        std::string name;
        double acc = 0;
        Metrics metrics;
    };
    // The four worlds are independent, so they run side by side.
    const std::vector<std::pair<std::string, SystemFactory>> sims = {
        {"DRAMSim2(DDR3)",
         [](EventQueue &eq) {
             return std::make_unique<baselines::DramMainMemory>(
                 eq, baselines::DramMainMemory::ddr3Params(),
                 "dramsim2-ddr3");
         }},
        {"Ramulator(DDR4)",
         [](EventQueue &eq) {
             return std::make_unique<baselines::DramMainMemory>(
                 eq, baselines::DramMainMemory::ddr4Params(),
                 "ramulator-ddr4");
         }},
        {"Ramulator(PCM)",
         [](EventQueue &eq) {
             return std::make_unique<baselines::PcmSystem>(eq);
         }},
        {"VANS",
         [](EventQueue &eq) {
             return std::make_unique<nvram::VansSystem>(
                 eq, nvram::NvramConfig::optaneDefault());
         }},
    };
    auto rows = SweepRunner().map<Row>(sims.size(), [&](std::size_t i) {
        EventQueue eq;
        auto m = sims[i].second(eq);
        Row r;
        r.name = sims[i].first;
        r.metrics = measure(*m, regions);
        r.acc = avgAccuracy(r.metrics, regions);
        return r;
    });

    std::printf("\n(a) average accuracy wrt Optane reference\n");
    TextTable t({"simulator", "lat-ld", "lat-st", "bw-ld", "bw-st",
                 "average"});
    for (auto &r : rows) {
        t.addRow({r.name,
                  fmtDouble(r.metrics.latLd.accuracyAgainst(
                      optaneLoadReference(regions))),
                  fmtDouble(r.metrics.latSt.accuracyAgainst(
                      optaneStoreReference(regions))),
                  fmtDouble(r.metrics.bwLd.accuracyAgainst(
                      bwLdReference(regions))),
                  fmtDouble(r.metrics.bwSt.accuracyAgainst(
                      bwStReference(regions))),
                  fmtDouble(r.acc)});
    }
    std::printf("%s\n", t.render().c_str());

    check("every conventional simulator lands below 80% average",
          rows[0].acc < 0.8 && rows[1].acc < 0.8 && rows[2].acc < 0.8);
    check("VANS beats every conventional simulator",
          rows[3].acc > rows[0].acc && rows[3].acc > rows[1].acc &&
              rows[3].acc > rows[2].acc);
    check("VANS average accuracy above 80% (paper: 86.5%)",
          rows[3].acc > 0.80);

    // ---- (b) PCM vs VANS pointer chasing -------------------------
    std::printf("(b) pointer-chasing read latency per CL (ns)\n");
    printCurves({rows[2].metrics.latLd, rows[3].metrics.latLd,
                 optaneLoadReference(regions)},
                "region");
    check("Ramulator-PCM shows at most the DRAM row-buffer knee "
          "(no buffer hierarchy)",
          rows[2].metrics.latLd.findInflections(0.22).size() <= 1);
    check("VANS read latency shows the buffer segments",
          !rows[3].metrics.latLd.findInflections(0.22).empty());

    return finish();
}
