/**
 * @file
 * All tunable parameters of the VANS NVRAM model in one place, and
 * the schema that reads them from an INI file.
 *
 * Defaults reproduce the Optane DIMM parameters characterized in the
 * paper (Fig 4 / Table V): 512B WPQ per channel, 4KB on-DIMM LSQ with
 * 64B entries, 16KB RMW buffer with 256B entries, 16MB AIT buffer
 * with 4KB entries, 256B media access granularity, 4KB multi-DIMM
 * interleaving, and 64KB wear-leveling blocks that migrate after
 * ~14,000 writes with a ~100x latency stall.
 */

#ifndef VANS_NVRAM_NVRAM_CONFIG_HH
#define VANS_NVRAM_NVRAM_CONFIG_HH

#include <cstdint>
#include <span>
#include <string>

#include "common/types.hh"
#include "dram/timing.hh"

namespace vans::nvram
{

/**
 * Operating mode of the socket (paper section II-A). App Direct
 * exposes the NVM DIMMs directly -- load/store latency is media
 * latency and flush instructions are the persistence mechanism.
 * Memory mode interposes a direct-mapped, line-granularity DRAM
 * cache in front of each NVM channel: hits complete at DRAM
 * latency, misses fetch the line from the DIMM, dirty evictions
 * write it back. The cache is volatile, so Memory mode offers no
 * persistence guarantee (persistSupported() is false); flush-kind
 * stores still write through to the DIMM.
 */
enum class SystemMode : std::uint8_t
{
    AppDirect,
    Memory,
};

/** Complete parameter set for one simulated NVRAM memory system. */
struct NvramConfig
{
    // ---- Topology -------------------------------------------------
    SystemMode mode = SystemMode::AppDirect;
    unsigned numDimms = 1;
    bool interleaved = false;
    std::uint64_t interleaveBytes = 4096; ///< Paper section III-D.
    std::uint64_t dimmCapacity = 4ull << 30;

    // ---- iMC ------------------------------------------------------
    unsigned wpqEntries = 8;   ///< 8 x 64B = the 512B WPQ.
    unsigned rpqEntries = 32;
    /** Core + mesh + iMC pipeline, one way (ns). */
    double coreToImcNs = 50;

    // ---- DDR-T bus ------------------------------------------------
    double busCmdNs = 4;          ///< Command/handshake per transfer.
    double busDataPer64bNs = 3;   ///< 64B data beat at 2666 MT/s.
    double busTurnaroundNs = 55;  ///< Read<->write redirection cost.
    /** Request/grant handshake per WPQ write drained to the DIMM --
     *  the DDR-T write-channel pacing that sets the post-WPQ store
     *  plateau of Fig 5a. */
    double wpqGrantNs = 30;

    // ---- On-DIMM LSQ ---------------------------------------------
    unsigned lsqEntries = 64;     ///< 64 x 64B = 4KB.
    double lsqProbeNs = 6;
    /** Combining window: entries younger than this are held back to
     *  merge 64B writes into 256B media-friendly writes. */
    double lsqEpochNs = 600;

    // ---- RMW buffer ------------------------------------------------
    unsigned rmwEntries = 64;     ///< 64 x 256B = 16KB SRAM.
    std::uint32_t rmwLineBytes = 256;
    double rmwAccessNs = 30;

    // ---- AIT -------------------------------------------------------
    unsigned aitBufEntries = 4096; ///< 4096 x 4KB = 16MB.
    std::uint32_t aitLineBytes = 4096;
    double aitTagNs = 5;
    dram::DramTiming dramTiming = dram::DramTiming::ddr4OnDimm();

    // ---- 3D-XPoint media -------------------------------------------
    std::uint32_t mediaChunkBytes = 256;
    unsigned mediaPartitions = 6;
    double mediaReadNs = 150;
    double mediaWriteNs = 500;

    // ---- Memory-mode DRAM cache ------------------------------------
    /** Per-channel capacity of the direct-mapped DRAM cache (64B
     *  lines). Power of two; capacity / 64 is the set count. */
    std::uint64_t dcacheCapacity = 64ull << 20;
    /** Timing of the DRAM device serving as the cache (a full-size
     *  DDR4-2666 DIMM on the same channel, not the small on-DIMM
     *  device that backs the AIT). */
    dram::DramTiming dcacheTiming = dram::DramTiming::ddr4_2666();

    // ---- Wear leveling ---------------------------------------------
    std::uint64_t wearBlockBytes = 64 << 10;
    std::uint64_t wearThreshold = 14000;
    double migrationUs = 50;

    // ---- Returns / completion --------------------------------------
    double dimmCtrlNs = 18;  ///< DIMM controller FSM per request.

    // ---- Persistence instruction costs (Empirical Guide) -----------
    /** Extra one-way latency a clwb/clflushopt-initiated writeback
     *  pays over a plain store on its way to the iMC: the flush has
     *  to probe the cache hierarchy and eject the line before the
     *  write can travel (arXiv 1908.03583 / 1903.05714: flush+fence
     *  persists cost tens of ns over ntstore+fence at equal sizes). */
    double clwbExtraNs = 35;
    /** Write-combining drain granularity for NT stores. An sfence
     *  that cuts an NT-store run at a non-multiple of this size has
     *  to force out a partially filled combining buffer, which is
     *  what punishes small NT persists and puts the
     *  ntstore-vs-cached-write crossover at 256B (Empirical Guide,
     *  "avoid small ntstores"). */
    std::uint32_t wcBufferBytes = 256;
    /** Cost of that forced partial-buffer drain, charged once to the
     *  sfence that triggers it. */
    double wcPartialDrainNs = 120;

    // ---- Verification ----------------------------------------------
    /** Run with the model-integrity verifier attached (lifecycle +
     *  pipeline invariant checkers). The VANS_VERIFY environment
     *  variable turns this on for every system. Checking is passive
     *  -- it never perturbs simulated timing. */
    bool verify = false;

    // ---- Observability ---------------------------------------------
    /** Run with the trace recorder attached (per-request spans +
     *  per-component tracks, exported as Chrome trace-event JSON).
     *  The VANS_TRACE environment variable turns this on for every
     *  system. Tracing is passive -- it never perturbs simulated
     *  timing. */
    bool trace = false;

    /**
     * Reject, via a fatal() that names the key, a configuration no
     * world can run: any member outside its nvramKeys() rule, or an
     * interleave wider than a DIMM. Called by fromString() at parse
     * time and by the iMC at construction.
     */
    void validate() const;

    /** True when the socket runs with the DRAM cache in front. */
    bool memoryMode() const { return mode == SystemMode::Memory; }

    /** Table V defaults (what the validated runs use). */
    static NvramConfig optaneDefault();

    /**
     * The defaults overridden by INI text: `key = value` lines under
     * one or more `[nvram]` headers, with `#` and `;` comments. A
     * later duplicate key overrides an earlier one. fatal() names
     * the line, section or key of anything else: another section, a
     * key above the first header, a key outside nvramKeys(), or a
     * value that is not one whole token satisfying its key's rule.
     */
    static NvramConfig fromString(const std::string &text);

    /** fromString() on the contents of @p path; fatal() names the
     *  path when it cannot be read. */
    static NvramConfig fromFile(const std::string &path);
};

/** How an [nvram] value is spelled, and which values hold. */
enum class KeyRule : std::uint8_t
{
    Count,    ///< A whole number in [min, max]; K/M/G suffixes scale.
    Size,     ///< A power-of-two byte count in [min, max]; K/M/G too.
    Duration, ///< A finite number in [min, max], in the key's unit.
    Flag,     ///< true/false, yes/no, on/off or 1/0.
    Mode,     ///< app_direct or memory.
};

/**
 * One row of the [nvram] schema: a key, its NvramConfig member and
 * the rule its value must satisfy. Every value passes through a
 * double: a count or size is exact below 2^53, a flag or mode reads
 * 0 or 1.
 */
struct NvramKey
{
    const char *name;
    KeyRule rule;
    double min;
    double max;
    double (*get)(const NvramConfig &);
    /** Store @p v, which satisfies this row's rule, into the member. */
    void (*set)(NvramConfig &, double v);
};

/** The [nvram] schema: one row per key, in NvramConfig order. */
std::span<const NvramKey> nvramKeys();

/**
 * Parse a byte count with an optional binary suffix: "16K" -> 16384,
 * "4M", "2G", "64B", plain numbers otherwise. fatal() on anything
 * else, or on a value that is not a whole number in [0, 2^64).
 */
std::uint64_t parseSize(const std::string &value);

} // namespace vans::nvram

#endif // VANS_NVRAM_NVRAM_CONFIG_HH
