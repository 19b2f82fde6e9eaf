/**
 * @file
 * Reproduces Fig 1: the PMEP-vs-Optane performance discrepancy.
 *
 *  (a) Single-thread bandwidth for load / store / store+clwb /
 *      store-nt on PMEP(6 DIMM emulation) and VANS(6 DIMM). The
 *      paper's claim: PMEP models load and store bandwidth *above*
 *      its NT-store bandwidth, while on real Optane NT stores beat
 *      the cached-store paths.
 *  (b) Pointer-chasing read latency vs region size: PMEP is flat,
 *      Optane/VANS shows the three buffer segments.
 */

#include "baselines/dram_system.hh"
#include "bench/bench_util.hh"
#include "lens/driver.hh"
#include "lens/microbench.hh"
#include "nvram/vans_system.hh"

using namespace vans;
using namespace vans::bench;

namespace
{

struct BwRow
{
    double load, store, storeClwb, storeNt;
};

/**
 * Single-thread bandwidth of the four access kinds. "store" pays a
 * write-allocate RFO read per line plus an eventual writeback (the
 * cached-store path); "store+clwb" forces the writeback immediately
 * (in order); "store-nt" writes without any read traffic.
 */
BwRow
measureBandwidth(MemorySystem &mem)
{
    lens::Driver drv(mem);
    const std::uint64_t span = 4 << 20;
    std::vector<Addr> seq;
    for (Addr a = 0; a < span; a += 64)
        seq.push_back(a);
    auto gbps = [&](Tick t) {
        return static_cast<double>(seq.size()) * 64 /
               (ticksToNs(t) * 1e-9) / 1e9;
    };

    BwRow row;
    row.load = gbps(drv.streamReads(seq, 24));

    // store: RFO read stream + deferred writebacks (reads and
    // writes interleave on the bus).
    {
        Tick start = drv.now();
        std::size_t batch = 64;
        for (std::size_t i = 0; i < seq.size(); i += batch) {
            std::vector<Addr> rfo(seq.begin() + i,
                                  seq.begin() +
                                      std::min(i + batch, seq.size()));
            drv.streamReads(rfo, 24);
            // Writebacks are cached-store evictions (MemOp::Write),
            // not NT stores.
            drv.streamOps(rfo, MemOp::Write, 16, nsToTicks(3.0));
        }
        drv.fence();
        row.store = static_cast<double>(seq.size()) * 64 /
                    (ticksToNs(drv.now() - start) * 1e-9) / 1e9;
    }

    // store+clwb: RFO + immediate in-order writeback per line.
    {
        Tick start = drv.now();
        std::size_t batch = 16;
        for (std::size_t i = 0; i < seq.size(); i += batch) {
            std::vector<Addr> lines(
                seq.begin() + i,
                seq.begin() + std::min(i + batch, seq.size()));
            drv.streamReads(lines, 24);
            drv.streamOps(lines, MemOp::Clwb, 16, nsToTicks(3.0));
            drv.fence();
        }
        row.storeClwb = static_cast<double>(seq.size()) * 64 /
                        (ticksToNs(drv.now() - start) * 1e-9) / 1e9;
    }

    row.storeNt = gbps(drv.streamWrites(seq, 16, 3.0));
    return row;
}

Curve
chaseCurve(MemorySystem &mem, const char *label,
           const std::vector<std::uint64_t> &regions)
{
    lens::Driver drv(mem);
    Curve c(label);
    for (std::uint64_t region : regions) {
        lens::PtrChaseParams pc;
        pc.regionBytes = region;
        pc.warmupLines = 10000;
        pc.measureLines = 2500;
        pc.seed = region;
        c.add(static_cast<double>(region),
              lens::ptrChase(drv, pc).nsPerLine);
    }
    return c;
}

} // namespace

int
main()
{
    banner("Figure 1",
           "PMEP emulation vs Optane-DIMM (VANS) discrepancy");

    // ---- (a) bandwidth -------------------------------------------
    EventQueue eq_pmep;
    baselines::PmepSystem pmep(eq_pmep, 16ull << 30, "pmep-6dimm");
    auto pmep_bw = measureBandwidth(pmep);

    nvram::NvramConfig six = nvram::NvramConfig::optaneDefault();
    six.numDimms = 6;
    six.interleaved = true;
    EventQueue eq_vans;
    nvram::VansSystem vans6(eq_vans, six, "vans-6dimm");
    auto vans_bw = measureBandwidth(vans6);

    std::printf("\n(a) single-thread bandwidth, GB/s\n");
    TextTable t({"system", "load", "store", "store+clwb",
                 "store-nt"});
    t.addRow({"PMEP(6DIMM)", fmtDouble(pmep_bw.load),
              fmtDouble(pmep_bw.store), fmtDouble(pmep_bw.storeClwb),
              fmtDouble(pmep_bw.storeNt)});
    t.addRow({"VANS(6DIMM)", fmtDouble(vans_bw.load),
              fmtDouble(vans_bw.store), fmtDouble(vans_bw.storeClwb),
              fmtDouble(vans_bw.storeNt)});
    std::printf("%s\n", t.render().c_str());

    check("PMEP: load bandwidth >= its NT-store bandwidth",
          pmep_bw.load >= pmep_bw.storeNt);
    check("PMEP: store bandwidth >= 0.95x its NT-store bandwidth "
          "(the emulator's inversion, to within 5%)",
          pmep_bw.store >= pmep_bw.storeNt * 0.95);
    check("VANS: NT stores beat cached stores (real-device order)",
          vans_bw.storeNt > vans_bw.store);
    check("VANS: NT stores beat store+clwb",
          vans_bw.storeNt > vans_bw.storeClwb);
    check("VANS: load bandwidth highest",
          vans_bw.load > vans_bw.storeNt);

    // ---- (b) pointer-chasing latency ------------------------------
    auto regions = logSweep(64, 256ull << 20, 2);
    EventQueue eq_p2;
    baselines::PmepSystem pmep1(eq_p2, 16ull << 30, "pmep-1dimm");
    auto pmep_curve = chaseCurve(pmep1, "PMEP", regions);

    EventQueue eq_v2;
    nvram::VansSystem vans1(eq_v2,
                            nvram::NvramConfig::optaneDefault(),
                            "vans-1dimm");
    auto vans_curve = chaseCurve(vans1, "VANS", regions);
    auto ref = optaneLoadReference(regions);

    std::printf("(b) pointer-chasing read latency per CL (ns)\n");
    printCurves({pmep_curve, vans_curve, ref}, "region");

    check("PMEP latency curve is flat (no buffer inflections)",
          pmep_curve.findInflections(0.22).empty());
    auto infl = vans_curve.findInflections(0.22);
    check("VANS latency curve has >= 2 inflections (buffer effects)",
          infl.size() >= 2);
    check("VANS first inflection at 16KB (RMW buffer)",
          !infl.empty() && infl[0] == 16384.0);
    check("VANS matches Optane reference shape (accuracy > 75%)",
          vans_curve.accuracyAgainst(ref) > 0.75);

    return finish();
}
