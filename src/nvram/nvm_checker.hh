/**
 * @file
 * NVM pipeline invariant checker + the verify=on aggregate.
 *
 * NvmInvariantChecker re-derives the occupancy and wear-leveling
 * bookkeeping of a running VansSystem from the outside, the way the
 * Ddr4Checker re-derives bank state from the command stream: it only
 * reads component occupancies through their public accessors and
 * compares them against the configured structure sizes from the paper
 * (512B WPQ, 4KB LSQ, 16KB RMW buffer, 16MB AIT buffer), so a
 * component whose own bookkeeping drifts cannot certify itself.
 *
 * The checker is deliberately passive: it never schedules events and
 * never issues requests, so a verified run has tick-for-tick the same
 * timing as an unverified one.
 *
 * The audit methods are pure over snapshots (Occupancy / wear
 * counters), which is what lets the negative tests feed corrupted
 * snapshots and assert that exactly the intended rule fires.
 *
 * Verifier bundles everything a verified system needs -- a Monitor,
 * the RequestLifecycleChecker and the NvmInvariantChecker -- and is
 * owned by VansSystem when verification is on (NvramConfig::verify
 * or the VANS_VERIFY environment variable).
 */

#ifndef VANS_NVRAM_NVM_CHECKER_HH
#define VANS_NVRAM_NVM_CHECKER_HH

#include <cstdint>
#include <string>

#include "common/check.hh"
#include "common/crash.hh"
#include "common/event_queue.hh"
#include "common/lifecycle.hh"
#include "common/request.hh"
#include "nvram/nvram_config.hh"

namespace vans::nvram
{

class VansSystem;

/** Occupancy snapshot of one DIMM pipeline (plus its iMC queues). */
struct Occupancy
{
    std::size_t wpq = 0;       ///< iMC WPQ lines held in ADR.
    std::size_t rpq = 0;       ///< iMC reads in flight past the RPQ.
    std::size_t lsq = 0;       ///< On-DIMM LSQ 64B entries.
    std::size_t rmw = 0;       ///< RMW buffer 256B lines.
    std::size_t aitBuf = 0;    ///< AIT buffer 4KB lines resident.
    std::size_t aitIntake = 0; ///< AIT write-intake queue depth.
    std::size_t aitIntakeCap = 0; ///< Configured intake bound.
};

/** Wear-leveling accounting snapshot of one DIMM. */
struct WearState
{
    std::uint64_t migrations = 0;  ///< Migrations started so far.
    std::uint64_t mediaWrites = 0; ///< Media chunk writes so far.
    std::size_t active = 0;        ///< Migrations in flight.
    Tick earliestEnd = 0;          ///< Soonest in-flight end tick.
};

/** External re-derivation of NVM pipeline invariants. */
class NvmInvariantChecker
{
  public:
    NvmInvariantChecker(const EventQueue &eq, const NvramConfig &config,
                        verify::Monitor &mon)
        : eventq(eq), cfg(config), monitor(mon)
    {}

    /**
     * Check one DIMM's occupancy snapshot against the configured
     * capacities. Pure over @p o: negative tests feed fabricated
     * snapshots here.
     */
    void auditOccupancy(const Occupancy &o, unsigned dimm_index,
                        Tick now);

    /**
     * Check one DIMM's wear-leveling accounting: every migration is
     * paid for by wearThreshold media writes to its block, and no
     * in-flight migration may end in the simulated past (a stale
     * record would stall writes to its block forever).
     */
    void auditWear(const WearState &w, unsigned dimm_index, Tick now);

    /** Snapshot and audit every DIMM of a live system. */
    void audit(VansSystem &sys);

    /**
     * Teardown audit. With @p queue_drained, additionally require
     * that no migration is still recorded in flight (their end events
     * must have fired) and that the write path is quiescent.
     */
    void finalCheck(VansSystem &sys, bool queue_drained);

    /** Full-system audits performed so far. */
    std::uint64_t audits() const { return numAudits; }

  private:
    void report(unsigned dimm_index, const char *rule,
                std::string detail, Tick now);

    const EventQueue &eventq;
    NvramConfig cfg;
    verify::Monitor &monitor;
    std::uint64_t numAudits = 0;
};

/**
 * Everything a verified VansSystem carries: the shared failure sink,
 * the request-lifecycle checker, and the pipeline invariant checker.
 */
class Verifier
{
  public:
    Verifier(const EventQueue &eq, const NvramConfig &cfg);

    /**
     * Observe an issued request: registers it with the lifecycle
     * checker and hooks its completion callback so retirement is
     * observed and a full-system audit runs at every completion.
     */
    void onIssue(Request &req, VansSystem &sys);

    /** End-of-run checks; @p queue_drained as in the checkers. */
    void finalCheck(VansSystem &sys, bool queue_drained);

    verify::Monitor &monitor() { return mon; }
    verify::RequestLifecycleChecker &lifecycle() { return lifeChecker; }
    NvmInvariantChecker &invariants() { return invChecker; }

    /**
     * The PM-discipline checker (un-fenced dirty lines a program
     * assumed durable). Passive like the others: the crash harness
     * and tests feed it the cache-level events the memory system
     * never sees.
     */
    persist::PersistenceChecker &persistence()
    {
        return persistChecker;
    }

  private:
    verify::Monitor mon;
    verify::RequestLifecycleChecker lifeChecker;
    NvmInvariantChecker invChecker;
    persist::PersistenceChecker persistChecker;
};

} // namespace vans::nvram

#endif // VANS_NVRAM_NVM_CHECKER_HH
