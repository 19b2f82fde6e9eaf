/**
 * @file
 * One NVRAM DIMM: the DDR-T endpoint that ties together the on-DIMM
 * LSQ, RMW buffer, AIT and media into the pipeline of Fig 8.
 */

#ifndef VANS_NVRAM_DIMM_HH
#define VANS_NVRAM_DIMM_HH

#include <memory>
#include <string>

#include "common/event_queue.hh"
#include "common/inplace_function.hh"
#include "common/types.hh"
#include "nvram/ait.hh"
#include "nvram/lsq.hh"
#include "nvram/nvram_config.hh"
#include "nvram/rmw_buffer.hh"

namespace vans::nvram
{

/** A complete Optane-style DIMM behind one DDR-T channel. */
// simlint-hot
class NvramDimm
{
  public:
    using DoneCallback = InplaceFunction<void(Tick)>;

    NvramDimm(EventQueue &eq, const NvramConfig &cfg,
              const std::string &name);

    /** True while the LSQ can admit one 64B write from the bus. */
    bool canAcceptWrite(Addr addr) const
    {
        return lsqStage.canAcceptWrite(addr);
    }

    /** Admit one 64B write from the bus into the LSQ. */
    void acceptWrite(Addr addr) { lsqStage.acceptWrite(addr); }

    /**
     * Service a 64B read. @p done fires when the data is staged at
     * the DIMM controller, ready for the grant/data-return phase.
     * Handles the LSQ read-after-write hazard by force-draining and
     * retrying against the RMW buffer.
     */
    void read(Addr addr, DoneCallback done);

    /** Fence support: close every combining epoch. */
    void seal() { lsqStage.seal(); }

    /** True when no write is pending anywhere in the DIMM. */
    bool
    writeQuiescent() const
    {
        return lsqStage.writeQuiescent() && aitStage.writeQuiescent() &&
               rmwStage.writeQuiescent();
    }

    /** Snapshot precondition: all three stages fully idle. The RMW
     *  probe walks its entry map, so it goes last. */
    bool
    quiescent() const
    {
        return lsqStage.quiescent() && aitStage.quiescent() &&
               rmwStage.quiescent();
    }

    /** Forwarded to the iMC so WPQ draining can resume. */
    void
    setWriteSpaceCallback(InplaceFunction<void()> cb)
    {
        lsqStage.onSpaceFreed = std::move(cb);
    }

    Lsq &lsq() { return lsqStage; }
    RmwBuffer &rmw() { return rmwStage; }
    Ait &ait() { return aitStage; }

    /** Attach tracing to every stage of this DIMM. Pointer only. */
    void
    attachTracer(obs::TraceRecorder &rec, const std::string &name)
    {
        lsqStage.attachTracer(rec, name + ".lsq");
        rmwStage.attachTracer(rec, name + ".rmw");
        aitStage.attachTracer(rec, name + ".ait");
    }

    /** Serialize all three stages (each REQUIREs its quiescence). */
    void serialize(snapshot::Archive &ar);

  private:
    EventQueue &eventq;
    const NvramConfig cfg;
    Ait aitStage;
    RmwBuffer rmwStage;
    Lsq lsqStage;
};

} // namespace vans::nvram

#endif // VANS_NVRAM_DIMM_HH
