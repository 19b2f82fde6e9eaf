#include "nvram/dimm.hh"

#include "common/check.hh"
#include "common/snapshot.hh"

namespace vans::nvram
{

NvramDimm::NvramDimm(EventQueue &eq, const NvramConfig &config,
                     const std::string &name)
    : eventq(eq),
      cfg(config),
      aitStage(eq, config, name + ".ait"),
      rmwStage(eq, config, aitStage, name + ".rmw"),
      lsqStage(eq, config, rmwStage, name + ".lsq")
{}

void
NvramDimm::read(Addr addr, DoneCallback done)
{
    // DIMM controller pipeline + LSQ probe.
    Tick probe_at = eventq.curTick() +
                    nsToTicks(cfg.dimmCtrlNs + cfg.lsqProbeNs);
    eventq.schedule(probe_at, [this, addr,
                               done = std::move(done)]() mutable {
        // Peek first so the move-only callback goes down exactly one
        // path; readProbe commits the force-drain.
        if (lsqStage.pendingLine(addr)) {
            bool hazard = lsqStage.readProbe(
                addr, [this, addr,
                       done = std::move(done)](Tick) mutable {
                    // The pending write has reached the RMW buffer;
                    // the read now completes from there.
                    rmwStage.read(addr, std::move(done));
                });
            VANS_INVARIANT("dimm", eventq.curTick(), hazard,
                           "pendingLine/readProbe disagree at %llx",
                           static_cast<unsigned long long>(addr));
            return;
        }
        rmwStage.read(addr, std::move(done));
    });
}

void
NvramDimm::serialize(snapshot::Archive &ar)
{
    ar.tag("nvram-dimm");
    lsqStage.serialize(ar);
    rmwStage.serialize(ar);
    aitStage.serialize(ar);
}

} // namespace vans::nvram
