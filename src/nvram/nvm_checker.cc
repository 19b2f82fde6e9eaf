#include "nvram/nvm_checker.hh"

#include <cstdio>
#include <utility>

#include "nvram/vans_system.hh"

namespace vans::nvram
{

namespace
{

/** Small printf helper for failure details. */
template <typename... Args>
std::string
fmt(const char *f, Args... args)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), f, args...);
    return buf;
}

} // namespace

void
NvmInvariantChecker::report(unsigned dimm_index, const char *rule,
                            std::string detail, Tick now)
{
    monitor.report({"nvram.dimm" + std::to_string(dimm_index), rule,
                    std::move(detail), now});
}

void
NvmInvariantChecker::auditOccupancy(const Occupancy &o,
                                    unsigned dimm_index, Tick now)
{
    if (o.wpq > cfg.wpqEntries) {
        report(dimm_index, "wpq-capacity",
               fmt("%zu lines held, capacity %u x 64B = %uB", o.wpq,
                   cfg.wpqEntries, cfg.wpqEntries * 64),
               now);
    }
    if (o.rpq > cfg.rpqEntries) {
        report(dimm_index, "rpq-capacity",
               fmt("%zu reads in flight, capacity %u", o.rpq,
                   cfg.rpqEntries),
               now);
    }
    if (o.lsq > cfg.lsqEntries) {
        report(dimm_index, "lsq-capacity",
               fmt("%zu entries held, capacity %u x 64B = %uB", o.lsq,
                   cfg.lsqEntries, cfg.lsqEntries * 64),
               now);
    }
    if (o.rmw > cfg.rmwEntries) {
        report(dimm_index, "rmw-capacity",
               fmt("%zu lines held, capacity %u x %uB = %uB", o.rmw,
                   cfg.rmwEntries, cfg.rmwLineBytes,
                   cfg.rmwEntries * cfg.rmwLineBytes),
               now);
    }
    if (o.aitBuf > cfg.aitBufEntries) {
        report(dimm_index, "ait-buffer-capacity",
               fmt("%zu lines resident, capacity %u x %uB", o.aitBuf,
                   cfg.aitBufEntries, cfg.aitLineBytes),
               now);
    }
    if (o.aitIntake > o.aitIntakeCap) {
        report(dimm_index, "ait-intake-capacity",
               fmt("%zu writes queued, intake bound %zu", o.aitIntake,
                   o.aitIntakeCap),
               now);
    }
}

void
NvmInvariantChecker::auditWear(const WearState &w, unsigned dimm_index,
                               Tick now)
{
    // Every migration is triggered by wearThreshold media writes to
    // its block (and the counter resets afterwards), so the media
    // must have absorbed at least migrations x threshold writes.
    if (w.migrations * cfg.wearThreshold > w.mediaWrites) {
        report(dimm_index, "wear-accounting",
               fmt("%llu migrations x threshold %llu exceeds %llu "
                   "media writes",
                   static_cast<unsigned long long>(w.migrations),
                   static_cast<unsigned long long>(cfg.wearThreshold),
                   static_cast<unsigned long long>(w.mediaWrites)),
               now);
    }
    // An in-flight migration whose end tick is already past would
    // block writes to its 64KB block forever.
    if (w.active > 0 && w.earliestEnd < now) {
        report(dimm_index, "stale-migration",
               fmt("%zu migrations in flight, earliest end %llu is "
                   "before tick %llu",
                   w.active,
                   static_cast<unsigned long long>(w.earliestEnd),
                   static_cast<unsigned long long>(now)),
               now);
    }
}

void
NvmInvariantChecker::audit(VansSystem &sys)
{
    ++numAudits;
    Tick now = eventq.curTick();
    Imc &imc = sys.imc();
    for (unsigned i = 0; i < imc.numDimms(); ++i) {
        NvramDimm &dimm = imc.dimm(i);
        Ait &ait = dimm.ait();
        Occupancy o;
        o.wpq = imc.wpqOccupancy(i);
        o.rpq = imc.rpqInFlight(i);
        o.lsq = dimm.lsq().occupancy();
        o.rmw = dimm.rmw().occupancy();
        o.aitBuf = ait.bufferOccupancy();
        o.aitIntake = ait.writeIntakeOccupancy();
        o.aitIntakeCap = ait.writeIntakeCapacity();
        auditOccupancy(o, i, now);

        WearLeveler &wear = ait.wearLeveler();
        WearState w;
        w.migrations = wear.migrations();
        w.mediaWrites = wear.mediaWrites();
        w.active = wear.activeMigrations();
        w.earliestEnd = wear.earliestMigrationEnd();
        auditWear(w, i, now);
    }
}

void
NvmInvariantChecker::finalCheck(VansSystem &sys, bool queue_drained)
{
    audit(sys);
    if (!queue_drained)
        return;

    // The queue drained: every migration-end event has fired, so a
    // surviving in-flight record is a leak; and every combining /
    // staging stage must have written itself out (anything stuck now
    // has no event left to unstick it).
    Tick now = eventq.curTick();
    Imc &imc = sys.imc();
    for (unsigned i = 0; i < imc.numDimms(); ++i) {
        NvramDimm &dimm = imc.dimm(i);
        std::size_t active =
            dimm.ait().wearLeveler().activeMigrations();
        if (active > 0) {
            report(i, "migration-leak",
                   fmt("%zu migrations still recorded in flight after "
                       "the event queue drained",
                       active),
                   now);
        }
        if (!dimm.writeQuiescent()) {
            report(i, "write-leak",
                   fmt("writes still pending in the DIMM pipeline "
                       "(lsq=%zu rmw_quiet=%d ait_quiet=%d) after the "
                       "event queue drained",
                       dimm.lsq().occupancy(),
                       dimm.rmw().writeQuiescent() ? 1 : 0,
                       dimm.ait().writeQuiescent() ? 1 : 0),
                   now);
        }
    }
}

Verifier::Verifier(const EventQueue &eq, const NvramConfig &cfg)
    : mon(/*fail_fast=*/true),
      lifeChecker(eq, mon),
      invChecker(eq, cfg, mon),
      persistChecker(mon)
{}

void
Verifier::onIssue(Request &req, VansSystem &sys)
{
    lifeChecker.onIssue(req);
    auto prev = std::move(req.onComplete);
    req.onComplete = [this, &sys,
                      prev = std::move(prev)](Request &r) mutable {
        lifeChecker.onRetire(r);
        invChecker.audit(sys);
        // prev may release the handle; nothing runs after it.
        if (prev)
            prev(r);
    };
}

void
Verifier::finalCheck(VansSystem &sys, bool queue_drained)
{
    lifeChecker.finalCheck(queue_drained);
    invChecker.finalCheck(sys, queue_drained);
}

} // namespace vans::nvram
