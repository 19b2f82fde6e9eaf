/**
 * @file
 * Top-level LENS entry point: run all probers against a memory
 * system and assemble the reverse-engineered architecture report
 * (the right-hand side of the paper's Fig 4).
 */

#ifndef VANS_LENS_REPORT_HH
#define VANS_LENS_REPORT_HH

#include <string>

#include "lens/probers.hh"

namespace vans::lens
{

/** Complete LENS characterization of one memory system. */
struct LensReport
{
    std::string systemName;
    BufferProbe buffers;
    PolicyProbe policy;
    PerfProbe perf;

    /** Render a human-readable summary (Fig 4-style parameters). */
    std::string summary() const;
};

/** Knobs for a full LENS run. */
struct LensParams
{
    BufferProberParams buffer;
    PolicyProberParams policy;
    bool runPolicy = true;
    bool runPerf = true;
};

/**
 * Run every prober against systems built by @p factory. The probers
 * fan their sweep points out across @p sweep, one fresh system per
 * point; the performance prober runs on one more fresh system.
 * Results are bit-identical for any thread count.
 */
LensReport runLens(const SystemFactory &factory,
                   const LensParams &params = {},
                   const SweepRunner &sweep = SweepRunner{});

} // namespace vans::lens

#endif // VANS_LENS_REPORT_HH
