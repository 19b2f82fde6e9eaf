/**
 * @file
 * DRAM timing parameter sets and device geometry.
 *
 * Timings are stored in device clock cycles (the JEDEC convention)
 * plus the bus clock frequency; helpers convert to global ticks. The
 * presets cover the configurations used across the experiments:
 * DDR4-2666 main memory (Table V), the small on-DIMM DDR4 that hosts
 * the AIT, legacy DDR3-1600 (for the DRAMSim2-style baseline of
 * Fig 3a), and a PCM-on-DDR parameter set that mimics how
 * Ramulator's PCM model stretches DRAM timings.
 */

#ifndef VANS_DRAM_TIMING_HH
#define VANS_DRAM_TIMING_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace vans::dram
{

/** JEDEC-style timing parameters in device clock cycles. */
struct DramTiming
{
    std::string name = "ddr4-2666";
    double clockMhz = 1333.0; ///< Bus clock (data rate = 2x).
    unsigned burstLength = 8; ///< BL8 -> 4 clock data beats.

    unsigned tCL = 19;    ///< CAS latency.
    unsigned tCWL = 14;   ///< CAS write latency.
    unsigned tRCD = 19;   ///< ACT -> CAS.
    unsigned tRP = 19;    ///< PRE -> ACT.
    unsigned tRAS = 43;   ///< ACT -> PRE.
    unsigned tRC = 62;    ///< ACT -> ACT (same bank).
    unsigned tCCD_S = 4;  ///< CAS -> CAS, different bank group.
    unsigned tCCD_L = 6;  ///< CAS -> CAS, same bank group.
    unsigned tRRD_S = 4;  ///< ACT -> ACT, different bank group.
    unsigned tRRD_L = 6;  ///< ACT -> ACT, same bank group.
    unsigned tFAW = 24;   ///< Four-ACT window.
    unsigned tWR = 20;    ///< Write recovery (WR data end -> PRE).
    unsigned tWTR_S = 4;  ///< WR data end -> RD, diff bank group.
    unsigned tWTR_L = 10; ///< WR data end -> RD, same bank group.
    unsigned tRTP = 10;   ///< RD -> PRE.
    unsigned tRFC = 467;  ///< Refresh cycle time.
    unsigned tREFI = 10400; ///< Refresh interval.

    /** Duration of @p cycles device cycles in ticks. */
    Tick
    cyc(std::uint64_t cycles) const
    {
        return static_cast<Tick>(static_cast<double>(cycles) * 1e6 /
                                 clockMhz);
    }

    /** One clock period in ticks. */
    Tick period() const { return cyc(1); }

    /** Data transfer time of one burst (BL/2 clocks). */
    Tick burstTicks() const { return cyc(burstLength / 2); }

    /** DDR4-2666 with Table V latencies (19-19-19-43). */
    static DramTiming ddr4_2666();

    /** The small on-DIMM DDR4 device hosting AIT state. */
    static DramTiming ddr4OnDimm();

    /** DDR3-1600 (11-11-11-28) for the legacy-simulator baseline. */
    static DramTiming ddr3_1600();

    /**
     * PCM-on-DDR timing a la Ramulator's PCM model: read row cycles
     * stretched ~4x, write recovery ~12x, no refresh.
     */
    static DramTiming pcmLike();
};

/**
 * The DramTiming durations DramController reads per command,
 * converted to ticks once: each field is cyc() of the DramTiming
 * field of the same name, tCK is period() and burst burstTicks().
 */
struct DramTicks
{
    explicit DramTicks(const DramTiming &t);

    Tick tCK, burst;
    Tick tCL, tCWL, tRCD, tRP, tRAS, tRC;
    Tick tCCD_S, tCCD_L, tRRD_S, tRRD_L, tFAW;
    Tick tWR, tWTR_L, tRTP, tRFC, tREFI;
};

/** Device geometry: how many banks and how big each row is. */
struct DramGeometry
{
    unsigned ranks = 1;
    unsigned bankGroups = 4;
    unsigned banksPerGroup = 4;
    std::uint64_t rowBytes = 8192;
    std::uint64_t capacityBytes = 4ull << 30;

    unsigned totalBanks() const { return ranks * bankGroups *
                                         banksPerGroup; }

    std::uint64_t
    rowsPerBank() const
    {
        return capacityBytes / (rowBytes * totalBanks());
    }
};

} // namespace vans::dram

#endif // VANS_DRAM_TIMING_HH
