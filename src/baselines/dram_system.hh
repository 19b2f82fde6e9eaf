/**
 * @file
 * DRAM-backed baseline memory systems.
 *
 * These reimplement the modelling *assumptions* of the tools the
 * paper compares against (sections II-B and II-C): that NVRAM is a
 * slower DRAM.
 *
 *  - DramMainMemory: a plain DDR4/DDR3 main memory (the DRAMSim2 /
 *    Ramulator-DDR baselines of Fig 3a, and the DRAM side of the
 *    Fig 11 speedup studies).
 *  - PmepSystem: the PMEP emulation model -- DRAM timing plus fixed
 *    injected latency per load/store and a bandwidth throttle
 *    (paper: "stalling the CPU for additional cycles ... and
 *    throttling bandwidth").
 *  - PcmSystem: the Ramulator-PCM model -- the DRAM protocol with
 *    stretched array timings and no refresh.
 *
 * None of them has on-DIMM buffers, so their pointer-chasing curves
 * are flat -- exactly the discrepancy Figs 1 and 3 demonstrate.
 */

#ifndef VANS_BASELINES_DRAM_SYSTEM_HH
#define VANS_BASELINES_DRAM_SYSTEM_HH

#include <deque>
#include <memory>
#include <string>

#include "common/mem_system.hh"
#include "common/stats.hh"
#include "dram/controller.hh"

namespace vans::baselines
{

/** Parameters shared by every DRAM-backed baseline. */
struct DramSystemParams
{
    dram::DramTiming timing = dram::DramTiming::ddr4_2666();
    dram::DramGeometry geometry;
    /** Core->iMC->core overhead, one way (ns). */
    double frontNs = 40;
    /** Injected extra latency per read/write (PMEP knob). */
    double extraReadNs = 0;
    double extraWriteNs = 0;
    /**
     * Minimum spacing between accepted accesses (bandwidth
     * throttle; 0 = DRAM-limited). PMEP uses this to emulate lower
     * NVRAM bandwidth; note it throttles NT stores hardest, which
     * is exactly the inversion Fig 1a exposes.
     */
    double minReadSpacingNs = 0;
    double minWriteSpacingNs = 0;
    /** Apply the write throttle to NT stores only (PMEP-style: the
     *  emulator penalises the "NVRAM write" path it models while
     *  cached stores run at DRAM speed -- the Fig 1a blind spot). */
    bool throttleNtWritesOnly = false;
    unsigned maxReads = 32;  ///< RPQ-equivalent MLP bound.
    unsigned maxWrites = 32; ///< Write queue depth.
};

/** A MemorySystem over one DRAM channel controller. */
class DramMainMemory : public MemorySystem
{
  public:
    DramMainMemory(EventQueue &eq, const DramSystemParams &params,
                   std::string name = "dram-main");

    void issue(RequestHandle h) override;
    std::string name() const override { return sysName; }
    std::uint64_t capacity() const override
    {
        return p.geometry.capacityBytes;
    }

    dram::DramController &controller() { return ctrl; }
    const StatGroup &stats() const { return statGroup; }

    /** DDR4-2666 main memory (Table V DRAM configuration). */
    static DramSystemParams ddr4Params(std::uint64_t capacity =
                                           16ull << 30);

    /** DDR3-1600 main memory (legacy-simulator baseline). */
    static DramSystemParams ddr3Params(std::uint64_t capacity =
                                           16ull << 30);

  private:
    void startRead(RequestHandle h);
    void startWrite(RequestHandle h);
    void checkFences();

    DramSystemParams p;
    std::string sysName;
    dram::DramController ctrl;

    unsigned readsInFlight = 0;
    unsigned writesInFlight = 0;
    std::deque<RequestHandle> readWaiting;
    std::deque<RequestHandle> writeWaiting;
    std::deque<RequestHandle> pendingFences;
    Tick nextReadSlot = 0;
    Tick nextWriteSlot = 0;

    StatGroup statGroup;
    StatScalar reads{statGroup, "reads"};
    StatScalar writes{statGroup, "writes"};
};

/** PMEP: DRAM + injected delay + bandwidth throttle (Fig 1). */
class PmepSystem : public DramMainMemory
{
  public:
    PmepSystem(EventQueue &eq, std::uint64_t capacity = 16ull << 30,
               std::string name = "pmep");

    /** The published PMEP-style parameterisation. */
    static DramSystemParams pmepParams(std::uint64_t capacity);
};

/** Ramulator-style PCM: DRAM protocol, stretched timing (Fig 3). */
class PcmSystem : public DramMainMemory
{
  public:
    PcmSystem(EventQueue &eq, std::uint64_t capacity = 16ull << 30,
              std::string name = "ramulator-pcm");

    static DramSystemParams pcmParams(std::uint64_t capacity);
};

} // namespace vans::baselines

#endif // VANS_BASELINES_DRAM_SYSTEM_HH
