/**
 * @file
 * VANS: the complete validated NVRAM memory system, as a
 * MemorySystem facade over the iMC + DIMM pipeline.
 *
 * This is the public entry point of the simulator: construct it from
 * an NvramConfig (or a parsed Config file), issue requests, read
 * statistics. LENS, the CPU model, the bench harnesses and the
 * examples all drive it through this interface.
 */

#ifndef VANS_NVRAM_VANS_SYSTEM_HH
#define VANS_NVRAM_VANS_SYSTEM_HH

#include <memory>
#include <string>

#include "common/mem_system.hh"
#include "nvram/imc.hh"
#include "nvram/nvram_config.hh"

namespace vans::nvram
{

class Verifier;

/** The Optane-DIMM-style memory system modeled by this repo. */
class VansSystem : public MemorySystem
{
  public:
    VansSystem(EventQueue &eq, const NvramConfig &cfg,
               std::string name = "vans");
    ~VansSystem() override;

    void issue(RequestHandle h) override;

    std::string name() const override { return sysName; }
    std::uint64_t capacity() const override
    {
        return static_cast<std::uint64_t>(cfg.numDimms) *
               cfg.dimmCapacity;
    }

    const NvramConfig &config() const { return cfg; }
    Imc &imc() { return imcModel; }
    NvramDimm &dimm(unsigned i = 0) { return imcModel.dimm(i); }

    /** Sum of RMW fills over all DIMMs (write amplification probe). */
    std::uint64_t totalRmwFills();

    /** Sum of wear-leveling migrations over all DIMMs. */
    std::uint64_t totalMigrations();

    /** Sum of media chunk writes over all DIMMs. */
    std::uint64_t totalMediaWrites();

    /**
     * Sum of one Memory-mode DRAM-cache scalar ("hits", "misses",
     * "dirty_evicts", "nvm_line_writes", ...) over all channels.
     * Zero in App Direct mode (no caches exist).
     */
    std::uint64_t dcacheScalarSum(const std::string &stat);

    /**
     * The attached verifier, or nullptr when the system runs
     * unverified (NvramConfig::verify and VANS_VERIFY both off).
     */
    Verifier *verifier() { return verif.get(); }

    /**
     * The owned trace recorder, or nullptr when the system runs
     * untraced (NvramConfig::trace and VANS_TRACE both off). This is the
     * single owner the whole component tree points into.
     */
    obs::TraceRecorder *tracer() override { return rec.get(); }

    /**
     * Register every StatGroup in the tree (iMC, per-DIMM stages,
     * media, wear, on-DIMM DRAM, per-request latency distributions,
     * event-kernel counters) for machine-readable export.
     */
    void metricsInto(MetricsRegistry &reg) override;

    /** Per-request latency distributions (sampled in traced runs). */
    const StatGroup &requestStats() const { return reqStats; }

    /** Warm-world fork support (common/snapshot.hh). */
    bool quiescent() const override;
    void serialize(snapshot::Archive &ar) override;

    /** Persistence domain (common/crash.hh): the WPQ is the ADR
     *  durability boundary this system exposes. Memory mode opts
     *  out: its DRAM cache is volatile, so dirty write-back lines
     *  die with a power cut and the crash harness's App Direct
     *  durability contract does not hold. */
    bool persistSupported() const override
    {
        return !cfg.memoryMode();
    }
    void enablePersistTracking() override
    {
        imcModel.enablePersistTracking();
    }
    void powerFail(persist::MediaImage &out) override;
    bool powerFailed() const override { return failed; }
    void loadDurableImage(const persist::MediaImage &image) override;
    persist::PersistenceChecker *persistenceChecker() override;

  private:
    const NvramConfig cfg;
    const std::string sysName;
    Imc imcModel;
    /** Set by powerFail(): the world is dead -- it accepts no more
     *  issues and skips teardown audits (in-flight requests never
     *  retire in a crashed world, by design). */
    // simlint-transient(a failed world is never snapshotted: its
    // in-flight requests make quiescent() -- the snapshot
    // precondition -- false for good)
    bool failed = false;
    // simlint-transient(the verifier shadows in-flight requests, of
    // which there are none at quiescence; a restored world verifies
    // its own fresh request stream)
    std::unique_ptr<Verifier> verif;

    /**
     * Trace recorder ownership (unique_ptr is legal here only:
     * simlint's tracebyvalue rule). Deliberately excluded from
     * serialize -- a restored world records a fresh trace, which the
     * snapshot-identity test relies on.
     */
    // simlint-transient(documented above: trace recorders are
    // deliberately excluded from serialize)
    std::unique_ptr<obs::TraceRecorder> rec;
    // simlint-transient(holds latency distributions only, and
    // distributions are observability-only by the StatGroup snapshot
    // contract; a fork samples its own fresh latencies)
    StatGroup reqStats;
    StatDistribution readLatency{reqStats, "read_latency_ns"};
    StatDistribution writeLatency{reqStats, "write_latency_ns"};
    StatDistribution fenceLatency{reqStats, "fence_latency_ns"};
    // simlint-transient(derived view: metricsInto rebuilds it from
    // the event queue on every export)
    StatGroup kernelStats;

    /** Request-pool counters, refreshed on each export. */
    // simlint-transient(derived view: metricsInto rebuilds it from
    // the pool counters on every export)
    StatGroup poolStats;
};

} // namespace vans::nvram

#endif // VANS_NVRAM_VANS_SYSTEM_HH
