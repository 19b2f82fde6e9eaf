#include "dram/timing.hh"

namespace vans::dram
{

DramTicks::DramTicks(const DramTiming &t)
    : tCK(t.period()), burst(t.burstTicks()),
      tCL(t.cyc(t.tCL)), tCWL(t.cyc(t.tCWL)), tRCD(t.cyc(t.tRCD)),
      tRP(t.cyc(t.tRP)), tRAS(t.cyc(t.tRAS)), tRC(t.cyc(t.tRC)),
      tCCD_S(t.cyc(t.tCCD_S)), tCCD_L(t.cyc(t.tCCD_L)),
      tRRD_S(t.cyc(t.tRRD_S)), tRRD_L(t.cyc(t.tRRD_L)),
      tFAW(t.cyc(t.tFAW)), tWR(t.cyc(t.tWR)), tWTR_L(t.cyc(t.tWTR_L)),
      tRTP(t.cyc(t.tRTP)), tRFC(t.cyc(t.tRFC)), tREFI(t.cyc(t.tREFI))
{}

DramTiming
DramTiming::ddr4_2666()
{
    DramTiming t;
    t.name = "ddr4-2666";
    return t;
}

DramTiming
DramTiming::ddr4OnDimm()
{
    DramTiming t = ddr4_2666();
    t.name = "ddr4-ondimm";
    return t;
}

DramTiming
DramTiming::ddr3_1600()
{
    DramTiming t;
    t.name = "ddr3-1600";
    t.clockMhz = 800.0;
    t.tCL = 11;
    t.tCWL = 8;
    t.tRCD = 11;
    t.tRP = 11;
    t.tRAS = 28;
    t.tRC = 39;
    t.tCCD_S = 4;  // DDR3 has no bank groups; S==L.
    t.tCCD_L = 4;
    t.tRRD_S = 5;
    t.tRRD_L = 5;
    t.tFAW = 24;
    t.tWR = 12;
    t.tWTR_S = 6;
    t.tWTR_L = 6;
    t.tRTP = 6;
    t.tRFC = 208;
    t.tREFI = 6240;
    return t;
}

DramTiming
DramTiming::pcmLike()
{
    // Ramulator-style PCM: DRAM protocol, stretched array timings.
    // Row activation (array read) ~4x DDR4, write recovery (cell
    // programming) ~12x, and no refresh because cells are NV.
    DramTiming t = ddr4_2666();
    t.name = "pcm-ddr";
    t.tRCD = 76;        // ~57 ns array read.
    t.tRAS = 120;
    t.tRC = 150;
    t.tWR = 240;        // ~180 ns cell write.
    t.tRFC = 0;
    t.tREFI = 0;        // Non-volatile: no refresh.
    return t;
}

} // namespace vans::dram
