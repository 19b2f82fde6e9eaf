/**
 * @file
 * The three LENS probers (paper section III-A): buffer, policy, and
 * performance. Each runs microbenchmarks against a black-box
 * MemorySystem and reverse engineers microarchitectural parameters
 * from the latency/bandwidth patterns alone.
 */

#ifndef VANS_LENS_PROBERS_HH
#define VANS_LENS_PROBERS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/curve.hh"
#include "common/mem_system.hh"
#include "common/sweep.hh"
#include "lens/driver.hh"
#include "lens/microbench.hh"

namespace vans::lens
{

/** Everything the buffer prober reverse engineers. */
struct BufferProbe
{
    Curve loadCurve{"ld"};  ///< ns/CL vs region (64B block).
    Curve storeCurve{"st"}; ///< ns/CL vs region (64B block).
    Curve load256Curve{"ld-256"};
    Curve store256Curve{"st-256"};
    Curve rawCurve{"RaW"};
    Curve rwSumCurve{"R+W"};
    Curve readAmpL1{"rmw-amp"};  ///< Score vs block size.
    Curve readAmpL2{"ait-amp"};
    Curve writeAmpWpq{"wpq-amp"};
    Curve writeAmpLsq{"lsq-amp"};

    /** Detected read buffer capacities (inflections), small first. */
    std::vector<std::uint64_t> readBufferCapacities;
    /** Detected write queue capacities, small first. */
    std::vector<std::uint64_t> writeQueueCapacities;
    /** Detected entry sizes of the two read buffer levels. */
    std::uint64_t readEntrySizeL1 = 0;
    std::uint64_t readEntrySizeL2 = 0;
    /** True when RaW shows no parallel fast-forward speedup
     *  (=> multi-level inclusive hierarchy, paper Fig 5c). */
    bool inclusiveHierarchy = false;
    /** Latency plateau per read level, low level first (ns). */
    std::vector<double> levelLatenciesNs;
};

/** Buffer prober configuration. */
struct BufferProberParams
{
    Addr base = 0;
    std::uint64_t minRegion = 64;
    std::uint64_t maxRegion = 256ull << 20;
    double inflectionThreshold = 0.22;
    std::uint64_t warmupLines = 12000;
    std::uint64_t measureLines = 6000;
};

/**
 * Runs the buffer-capacity / entry-size / hierarchy analysis. Every
 * sweep point runs against a fresh system built by @p factory,
 * fanned out by @p sweep. Results are collected in point order and
 * are bit-identical whatever the thread count (SweepRunner(1) is the
 * serial reference).
 */
BufferProbe runBufferProber(const SystemFactory &factory,
                            const BufferProberParams &p,
                            const SweepRunner &sweep = SweepRunner{});

/** Everything the policy prober reverse engineers. */
struct PolicyProbe
{
    std::vector<double> overwriteIterationNs; ///< Fig 7b raw series.
    double normalWriteNs = 0;
    double tailLatencyUs = 0;       ///< Detected migration latency.
    double tailIntervalWrites = 0;  ///< Writes between migrations.
    Curve tailRatioCurve{"tail-ratio"}; ///< Fig 7c.
    std::uint64_t wearBlockSize = 0;
    Curve seqWriteInterleaved{"interleaved"};  ///< Fig 7a.
    Curve seqWriteSingle{"non-interleaved"};
    std::uint64_t interleaveGranularity = 0;
};

/** Policy prober configuration. */
struct PolicyProberParams
{
    Addr base = 1ull << 20;
    std::uint64_t overwriteIterations = 60000;
    double tailThreshold = 8.0; ///< x median = a tail.
    /** Region sizes for the wear-granularity sweep. */
    std::vector<std::uint64_t> tailRegions =
        {256, 1024, 8192, 65536, 262144, 524288};
    /** Total bytes written per tail-sweep point. */
    std::uint64_t tailSweepBytes = 24ull << 20;
};

/**
 * Runs the wear-leveling tail analysis on systems built by
 * @p factory, fanned out as runBufferProber does. The interleaving
 * analysis needs two machines (interleaved and not); it is exposed
 * separately below.
 */
PolicyProbe runPolicyProber(const SystemFactory &factory,
                            const PolicyProberParams &p,
                            const SweepRunner &sweep = SweepRunner{});

/**
 * Interleave detector: measures sequential-write execution time vs
 * size on fresh interleaved and single systems at every point and
 * reports the granularity (paper Fig 7a). Fills the interleave
 * fields of @p out.
 */
void runInterleaveProbe(const SystemFactory &interleavedFactory,
                        const SystemFactory &singleFactory,
                        PolicyProbe &out,
                        std::uint64_t max_bytes = 16384,
                        const SweepRunner &sweep = SweepRunner{});

/** Performance prober output: per-level bandwidth and latency. */
struct PerfProbe
{
    double seqReadGbps = 0;
    double seqWriteGbps = 0;
    double randReadGbps = 0;
    double randWriteGbps = 0;
    /** Estimated access latency of each read level (ns). */
    std::vector<double> levelLatenciesNs;
};

/** Runs bandwidth measurements + latency attribution. */
PerfProbe runPerfProber(Driver &drv, const BufferProbe &buffers,
                        Addr base = 0);

} // namespace vans::lens

#endif // VANS_LENS_PROBERS_HH
