/**
 * @file
 * Example: design-space exploration with VANS's modular config --
 * "users can reconfigure VANS based on new parameters" (paper
 * section IV-E).
 *
 * Sweeps the RMW-buffer capacity and the media write latency and
 * reports how the pointer-chasing latency curve and sustained write
 * bandwidth respond, loading overrides from an INI config when one
 * is given.
 *
 * Usage: design_space [config.ini]
 */

#include <cstdio>

#include "common/logging.hh"
#include "common/ascii_chart.hh"
#include "common/curve.hh"
#include "common/event_queue.hh"
#include "lens/driver.hh"
#include "lens/microbench.hh"
#include "nvram/vans_system.hh"

using namespace vans;

namespace
{

void
evaluate(const nvram::NvramConfig &cfg, const std::string &label)
{
    EventQueue eq;
    nvram::VansSystem sys(eq, cfg, label);
    lens::Driver drv(sys);

    // Read latency at three working-set sizes.
    double lat[3];
    std::uint64_t regions[3] = {8u << 10, 1u << 20, 64u << 20};
    for (int i = 0; i < 3; ++i) {
        lens::PtrChaseParams pc;
        pc.regionBytes = regions[i];
        pc.warmupLines = 5000;
        pc.measureLines = 2000;
        lat[i] = lens::ptrChase(drv, pc).nsPerLine;
    }
    // Sequential write bandwidth.
    std::vector<Addr> addrs;
    for (Addr a = 0; a < (1 << 20); a += 64)
        addrs.push_back(a);
    Tick t = drv.streamWrites(addrs, 16, 3.0);
    drv.fence();
    double wr_gbps = static_cast<double>(addrs.size()) * 64 /
                     (ticksToNs(t) * 1e-9) / 1e9;

    std::printf("%-26s  ld8K %5.0f ns   ld1M %5.0f ns   ld64M %5.0f "
                "ns   seq-wr %4.2f GB/s\n",
                label.c_str(), lat[0], lat[1], lat[2], wr_gbps);
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);

    if (argc > 1) {
        auto cfg = nvram::NvramConfig::fromFile(argv[1]);
        std::printf("Evaluating config '%s'\n\n", argv[1]);
        evaluate(cfg, "custom");
        return 0;
    }

    std::printf("VANS design-space sweep\n\n");
    std::printf("RMW-buffer capacity:\n");
    for (unsigned entries : {16u, 64u, 256u}) {
        nvram::NvramConfig cfg = nvram::NvramConfig::optaneDefault();
        cfg.rmwEntries = entries;
        evaluate(cfg, "  rmw=" + formatSize(entries * 256));
    }
    std::printf("\nmedia write latency:\n");
    for (double wr : {250.0, 500.0, 1000.0}) {
        nvram::NvramConfig cfg = nvram::NvramConfig::optaneDefault();
        cfg.mediaWriteNs = wr;
        evaluate(cfg, "  mediaWr=" + fmtDouble(wr, 0) + "ns");
    }
    std::printf("\n(pass an INI file with an [nvram] section to "
                "evaluate your own design)\n");
    return 0;
}
