/**
 * @file
 * Example: profile an *unknown* NVRAM DIMM with LENS.
 *
 * Builds a memory system whose parameters differ from the Optane
 * defaults (as a stand-in for "some other vendor's NVRAM DIMM"),
 * then runs the full LENS prober suite against it as a black box
 * and prints the reverse-engineered architecture report -- the
 * workflow paper section IV-E prescribes for adapting VANS to new
 * devices.
 */

#include <cstdio>
#include <memory>

#include "common/logging.hh"
#include "common/event_queue.hh"
#include "lens/report.hh"
#include "nvram/vans_system.hh"

using namespace vans;

int
main()
{
    setQuiet(true);

    // The "mystery" DIMM: 32KB SRAM buffer, 8MB DRAM buffer, slower
    // media, 2KB interleaving, more aggressive wear-leveling.
    nvram::NvramConfig mystery = nvram::NvramConfig::optaneDefault();
    mystery.rmwEntries = 128;     // 32KB.
    mystery.aitBufEntries = 2048; // 8MB.
    mystery.mediaReadNs = 220;
    mystery.wearThreshold = 3000;

    // LENS builds a fresh world per sweep point, so it takes a
    // factory rather than one system.
    SystemFactory factory = [&mystery](EventQueue &eq) {
        return std::make_unique<nvram::VansSystem>(eq, mystery,
                                                   "mystery-nvdimm");
    };

    std::printf("Profiling 'mystery-nvdimm' with LENS (black "
                "box)...\n\n");

    lens::LensParams params;
    params.buffer.maxRegion = 64ull << 20;
    params.buffer.warmupLines = 8000;
    params.buffer.measureLines = 2500;
    params.policy.overwriteIterations = 10000;
    params.policy.tailRegions = {256, 4096, 65536, 262144};
    params.policy.tailSweepBytes = 4ull << 20;

    auto report = lens::runLens(factory, params);
    std::printf("%s\n", report.summary().c_str());

    std::printf("ground truth we planted:\n");
    std::printf("  RMW buffer: %s, AIT buffer: %s\n",
                formatSize(mystery.rmwEntries *
                           mystery.rmwLineBytes)
                    .c_str(),
                formatSize(static_cast<std::uint64_t>(
                               mystery.aitBufEntries) *
                           mystery.aitLineBytes)
                    .c_str());
    std::printf("  wear threshold: %llu writes, migration %.0fus\n",
                static_cast<unsigned long long>(
                    mystery.wearThreshold),
                mystery.migrationUs);
    return 0;
}
