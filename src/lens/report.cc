#include "lens/report.hh"

#include <sstream>

#include "common/ascii_chart.hh"

namespace vans::lens
{

LensReport
runLens(const SystemFactory &factory, const LensParams &params,
        const SweepRunner &sweep)
{
    LensReport rep;
    rep.buffers = runBufferProber(factory, params.buffer, sweep);
    if (params.runPolicy)
        rep.policy = runPolicyProber(factory, params.policy, sweep);

    EventQueue eq;
    auto sys = factory(eq);
    rep.systemName = sys->name();
    if (params.runPerf) {
        Driver drv(*sys);
        rep.perf = runPerfProber(drv, rep.buffers,
                                 params.buffer.base);
    }
    return rep;
}

std::string
LensReport::summary() const
{
    std::ostringstream out;
    out << "LENS characterization of '" << systemName << "'\n";

    out << "  read buffer levels:";
    for (auto c : buffers.readBufferCapacities)
        out << ' ' << formatSize(c);
    out << '\n';

    out << "  write queue levels:";
    for (auto c : buffers.writeQueueCapacities)
        out << ' ' << formatSize(c);
    out << '\n';

    out << "  read entry sizes: L1=" << formatSize(
               buffers.readEntrySizeL1)
        << " L2=" << formatSize(buffers.readEntrySizeL2) << '\n';

    out << "  hierarchy: "
        << (buffers.inclusiveHierarchy ? "two-level inclusive"
                                       : "independent buffers")
        << '\n';

    out << "  level latencies (ns):";
    for (double l : buffers.levelLatenciesNs)
        out << ' ' << fmtDouble(l, 1);
    out << '\n';

    if (policy.tailLatencyUs > 0) {
        out << "  migration: tail=" << fmtDouble(policy.tailLatencyUs, 1)
            << "us every ~"
            << fmtDouble(policy.tailIntervalWrites, 0)
            << " writes, block="
            << formatSize(policy.wearBlockSize) << '\n';
    }
    if (policy.interleaveGranularity > 0) {
        out << "  interleave granularity: "
            << formatSize(policy.interleaveGranularity) << '\n';
    }

    out << "  bandwidth (GB/s): seq-rd="
        << fmtDouble(perf.seqReadGbps, 2)
        << " seq-wr=" << fmtDouble(perf.seqWriteGbps, 2)
        << " rand-rd=" << fmtDouble(perf.randReadGbps, 2)
        << " rand-wr=" << fmtDouble(perf.randWriteGbps, 2) << '\n';

    return out.str();
}

} // namespace vans::lens
