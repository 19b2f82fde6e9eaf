/**
 * @file
 * Crash injection and persistence checking over the ADR domain.
 *
 * The model side (nvram/imc.*) tracks which 64B lines have been
 * accepted into a WPQ -- the ADR persistence domain -- and with which
 * version (the request id of the accepting write). On a power cut the
 * WPQ is guaranteed to drain to media, so the durable media image at
 * an arbitrary tick is exactly that version map: everything still in
 * CPU caches, crossing the core-to-iMC hop, or stalled outside a full
 * WPQ is lost.
 *
 * This header holds the model-independent half:
 *  - MediaImage: the durable line->version map a post-crash world is
 *    seeded from (MemorySystem::loadDurableImage);
 *  - PersistenceChecker: a passive per-line state machine (dirty ->
 *    flush issued -> fenced) that flags lines a program assumed
 *    durable without the flush+fence discipline;
 *  - CrashHarness: runs a PM instruction program (stores, NT stores,
 *    clwb/clflushopt, sfence) against any persist-capable
 *    MemorySystem, cuts power at an arbitrary tick, captures the
 *    durable image, and restarts a fresh world from it.
 *
 * Everything here drives memory through the abstract MemorySystem
 * persist hooks; the concrete ADR bookkeeping lives in the NVRAM
 * layer.
 */

#ifndef VANS_COMMON_CRASH_HH
#define VANS_COMMON_CRASH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hh"
#include "common/mem_system.hh"
#include "common/types.hh"

namespace vans::persist
{

/**
 * The durable state of the media after a power cut: one version per
 * 64B line, where a version is the id of the last write request
 * accepted into the ADR domain for that line. Requests carry no data
 * payload anywhere in this simulator, so "which bytes survived" is
 * modeled as "which write survived" -- good enough to decide torn,
 * lost and phantom lines exactly.
 */
class MediaImage
{
  public:
    /** Record @p version as durable for @p line (keeps the max). */
    void
    set(Addr line, std::uint64_t version)
    {
        std::uint64_t &v = img[line];
        if (version > v)
            v = version;
    }

    bool contains(Addr line) const { return img.count(line) != 0; }

    /** Durable version of @p line, or 0 when the line never became
     *  durable (request ids start at 1). */
    std::uint64_t
    versionOf(Addr line) const
    {
        auto it = img.find(line);
        return it == img.end() ? 0 : it->second;
    }

    std::size_t lineCount() const { return img.size(); }

    /** The full map, ordered by line address. */
    const std::map<Addr, std::uint64_t> &lines() const { return img; }

    bool
    operator==(const MediaImage &other) const
    {
        return img == other.img;
    }

  private:
    std::map<Addr, std::uint64_t> img;
};

/**
 * Passive crash-consistency checker: re-derives, per 64B line, what
 * PM programming discipline the request stream actually followed, and
 * reports lines a program *assumed* durable without having earned it
 * (the un-fenced dirty write bug class). Sits alongside the
 * NvmInvariantChecker inside the verify=on aggregate; the crash
 * harness (and tests) feed the cache-level events the memory system
 * cannot see.
 */
class PersistenceChecker
{
  public:
    /** Per-line discipline state. */
    enum class LineState : std::uint8_t
    {
        Clean,        ///< Never written (or only ever observed clean).
        Dirty,        ///< Cached store not yet flushed.
        FlushPending, ///< Flush/NT store issued, no fence completed.
        Durable,      ///< Flushed and covered by a completed fence.
    };

    explicit PersistenceChecker(verify::Monitor &mon) : monitor(mon) {}

    /** A cached store dirtied @p line (no memory request exists). */
    void onCachedWrite(Addr line, Tick now);

    /** A write headed for ADR was issued for @p line (clwb,
     *  clflushopt or NT store request). */
    void onFlush(Addr line, Tick now);

    /** A fence request @p fence_id was issued: it covers every flush
     *  observed so far. */
    void onFenceIssued(std::uint64_t fence_id, Tick now);

    /** Fence @p fence_id completed: covered flushes are durable. */
    void onFenceComplete(std::uint64_t fence_id, Tick now);

    /**
     * The program declares it relies on @p line being durable (e.g.
     * it publishes a pointer to it). Reports through the monitor when
     * the line is dirty-unflushed or flushed-unfenced.
     */
    void assumeDurable(Addr line, Tick now);

    LineState state(Addr line) const;

    std::size_t durableLines() const;

    /** Violations reported so far. */
    std::uint64_t violations() const { return numViolations; }

  private:
    struct Line
    {
        LineState st = LineState::Clean;
        std::uint64_t flushSeq = 0; ///< Valid while FlushPending.
    };

    void report(const char *rule, std::string detail, Tick now);

    /** Ordered for deterministic iteration in promotions/reports. */
    std::map<Addr, Line> lineMap;
    /** Outstanding fences: (fence request id, flush barrier). */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> fences;
    std::uint64_t flushCounter = 0;
    std::uint64_t numViolations = 0;
    verify::Monitor &monitor;
};

/** One PM-program instruction for the crash harness. */
struct PmOp
{
    enum class Kind : std::uint8_t
    {
        Store,      ///< Cached store: dirties a line, no request.
        NtStore,    ///< NT store: write request straight toward ADR.
        Clwb,       ///< Flush (keep line): writeback if dirty.
        Clflushopt, ///< Flush + invalidate: writeback if dirty.
        Sfence,     ///< Waits until prior writes reached ADR.
    };

    Kind kind = Kind::Store;
    Addr addr = 0;
};

/**
 * Runs PM programs against a persist-capable MemorySystem with a
 * power cut at an arbitrary tick: the cut primitive peeks the next
 * event tick and stops short of it.
 */
class CrashHarness
{
  public:
    /** Everything a crash run exposes for recovery-invariant checks. */
    struct Report
    {
        /** The ADR-durable image at the cut (or at drain when the
         *  program finished first). */
        MediaImage image;
        /** Every durable-write request issued before the cut, in
         *  issue order: (64B line, request id == durable version). */
        std::vector<std::pair<Addr, std::uint64_t>> writesIssued;
        /** Longest prefix of writesIssued covered by an sfence that
         *  completed strictly before the cut. */
        std::uint64_t fencedWrites = 0;
        /** Sfences that completed strictly before the cut. */
        std::uint64_t fencesCompleted = 0;
        Tick cutTick = 0;
        /** The world's tick at image capture: the cut tick when the
         *  cut fired, the drain tick otherwise. Sizing input for
         *  sweep windows. */
        Tick endTick = 0;
        /** False when the program drained before the cut tick. */
        bool cutHappened = false;

        /**
         * The prefix-durability invariant for programs whose durable
         * writes target pairwise-distinct lines: the image must be
         * exactly writesIssued[0..k) for some k >= fencedWrites, with
         * every surviving version the recorded one (no torn line, no
         * lost fenced line, no phantom un-fenced line, no hole).
         * @return true when it holds; otherwise @p why says what
         * broke.
         */
        bool checkPrefixDurability(std::string &why) const;
    };

    /**
     * Build a fresh world from @p factory, run @p program against it
     * (one op issued every @p op_gap_ns), cut power at the first
     * event at or after @p cut_tick, and capture the durable image.
     * The system must report persistSupported().
     */
    static Report runToCrash(const SystemFactory &factory,
                             const std::vector<PmOp> &program,
                             Tick cut_tick, double op_gap_ns = 2.0);

    /** Build a fresh (post-crash) world and seed its media from the
     *  durable @p image. */
    static std::unique_ptr<MemorySystem>
    restart(const SystemFactory &factory, EventQueue &eq,
            const MediaImage &image);

    /**
     * The canonical logged-writes workload: @p records consecutive
     * lines from @p base, each made durable before the next starts
     * (NT store + sfence, or store + clwb + sfence when @p nt is
     * false). Its durable writes hit distinct lines, so
     * checkPrefixDurability applies at any cut tick.
     */
    static std::vector<PmOp> loggedWrites(Addr base, unsigned records,
                                          bool nt = true);
};

} // namespace vans::persist

#endif // VANS_COMMON_CRASH_HH
