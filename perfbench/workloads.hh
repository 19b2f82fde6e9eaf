/**
 * @file
 * The benchmark's three workloads. Each is a closed-loop batch: the
 * simulated software waits on its own requests, with at most 10 reads
 * or 16 stores in flight, and each takes the run's seed.
 *
 *  - lens-appdirect: LENS on a 1-DIMM App Direct VansSystem, warmed
 *    once and forked per region of a 4 KB..64 MB log sweep.
 *  - memmode-mix: the same driver on a 1-channel Memory Mode system
 *    (64 MB DRAM cache), regions 4 KB..256 MB.
 *  - cpu-traces: CpuCore + cache::Hierarchy over the 13 Table IV SPEC
 *    traces (6 interleaved DIMMs and DDR4), Redis and YCSB.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spans.hh"

namespace perfbench
{

/** One shape check from the figure benches, on this round's output. */
struct Check
{
    std::string claim;
    bool ok;
};

/**
 * What one measured round produced. Apart from host time, all of it is
 * a function of the seed: every round of a run repeats the same
 * simulated work and must reproduce the first round exactly.
 */
struct RoundResult
{
    /** Simulated counters summed over the round's worlds (keys are
     *  listed in workloads.cc); "peak." keys hold maxima. */
    std::map<std::string, double> counters;
    /** (world, SHA-256 of its MetricsRegistry JSON) per world. */
    std::vector<std::pair<std::string, std::string>> digests;
    std::vector<Check> checks;
    /** Human-readable table of the round's simulated results. */
    std::string report;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build what the rounds start from: traces, warm snapshot. */
    virtual void setup(SpanRecorder &spans) = 0;

    /** One measured round, on fresh worlds. */
    virtual RoundResult round(SpanRecorder &spans) = 0;
};

/** The workload names makeWorkload() accepts. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload @p name for @p seed. @p tiny shrinks every size so
 * the benchmark's own tests run in seconds; tiny runs skip nothing
 * but are too small for the shape checks to hold.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed, bool tiny);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
