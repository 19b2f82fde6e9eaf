#include "nvram/vans_system.hh"

#include "common/check.hh"
#include "common/crash.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/snapshot.hh"
#include "common/trace_event.hh"
#include "nvram/nvm_checker.hh"

namespace vans::nvram
{

VansSystem::VansSystem(EventQueue &eq, const NvramConfig &config,
                       std::string name)
    : MemorySystem(eq),
      cfg(config),
      sysName(std::move(name)),
      imcModel(eq, reqPool, config, sysName + ".imc"),
      reqStats(sysName + ".requests"),
      kernelStats(sysName + ".kernel"),
      poolStats(sysName + ".reqpool")
{
    if (cfg.verify || verify::envEnabled()) {
        verif = std::make_unique<Verifier>(eventq, cfg);
        imcModel.lifecycle = &verif->lifecycle();
    }
    if (cfg.trace || obs::envTraceEnabled()) {
        rec = std::make_unique<obs::TraceRecorder>();
        imcModel.attachTracer(*rec, sysName + ".imc");
    }
}

VansSystem::~VansSystem()
{
    // A power-failed world skips the teardown audits: its in-flight
    // requests never retire and its write path never drains -- that
    // is the crash, not a leak.
    if (verif && !failed)
        verif->finalCheck(*this, eventq.empty());
}

void
VansSystem::issue(RequestHandle h)
{
    VANS_REQUIRE("vans", eventq.curTick(), !failed,
                 "issue into a power-failed world");
    Request &req = reqPool.get(h);
    req.id = nextRequestId();
    req.issueTick = eventq.curTick();
    if (verif)
        verif->onIssue(req, *this);
    if (rec) [[unlikely]] {
        // Attach the slot's recycled hop log before recording the
        // issue. The wrapper spills the inner callback to the heap;
        // that is fine -- this path only runs in traced
        // (observability) runs.
        req.trace = &reqPool.traceFor(h);
        rec->onIssue(req, req.issueTick);
        auto inner = std::move(req.onComplete);
        req.onComplete = [this, inner = std::move(inner)](
                             Request &r) mutable {
            rec->onRetire(r, r.completeTick);
            StatDistribution &dist = isRead(r.op)    ? readLatency
                                     : isWrite(r.op) ? writeLatency
                                                     : fenceLatency;
            dist.sample(ticksToNs(r.latency()));
            if (inner)
                inner(r);
        };
    }
    switch (req.op) {
      case MemOp::Read:
      case MemOp::ReadNT:
        imcModel.issueRead(h);
        break;
      case MemOp::Write:
      case MemOp::WriteNT:
      case MemOp::Clwb:
      case MemOp::Clflushopt:
        imcModel.issueWrite(h);
        break;
      case MemOp::Fence:
        imcModel.issueFence(h);
        break;
      case MemOp::Sfence:
        imcModel.issueSfence(h);
        break;
    }
}

void
VansSystem::powerFail(persist::MediaImage &out)
{
    VANS_REQUIRE("vans", eventq.curTick(), !failed,
                 "powerFail on an already-failed world");
    VANS_REQUIRE("vans", eventq.curTick(),
                 imcModel.persistTrackingEnabled(),
                 "powerFail without persist tracking enabled");
    failed = true;
    // The ADR guarantee: WPQ contents drain to media on the standby
    // power, so everything the iMC accepted is durable -- and nothing
    // else is.
    std::vector<std::pair<Addr, std::uint64_t>> lines;
    imcModel.durableLines(lines);
    for (const auto &[line, version] : lines)
        out.set(line, version);
}

void
VansSystem::loadDurableImage(const persist::MediaImage &image)
{
    VANS_REQUIRE("vans", eventq.curTick(), lastRequestId() == 0,
                 "loadDurableImage into a world that already issued "
                 "requests (restart seeds fresh worlds only)");
    imcModel.enablePersistTracking();
    for (const auto &[line, version] : image.lines())
        imcModel.seedDurable(line, version);
}

persist::PersistenceChecker *
VansSystem::persistenceChecker()
{
    return verif ? &verif->persistence() : nullptr;
}

bool
VansSystem::quiescent() const
{
    return imcModel.quiescent();
}

void
VansSystem::metricsInto(MetricsRegistry &reg)
{
    reg.add(imcModel.stats());
    for (unsigned i = 0; i < imcModel.numDimms(); ++i) {
        NvramDimm &d = imcModel.dimm(i);
        reg.add(imcModel.channelStats(i));
        reg.add(d.lsq().stats());
        reg.add(d.rmw().stats());
        reg.add(d.ait().stats());
        reg.add(d.ait().mediaDev().stats());
        reg.add(d.ait().wearLeveler().stats());
        reg.add(d.ait().dramCtrl().stats());
        if (DramCache *dc = imcModel.dramCache(i)) {
            // Memory mode: hit-ratio / dirty-evict / write-through
            // counters plus the cache DIMM's DDR4 controller.
            reg.add(dc->stats());
            reg.add(dc->dramCtrl().stats());
        }
    }
    reg.add(reqStats);
    // Event-kernel and pool counters are sampled fresh on each export.
    eventq.statsInto(kernelStats);
    reg.add(kernelStats);
    reqPool.statsInto(poolStats);
    reg.add(poolStats);
}

void
VansSystem::serialize(snapshot::Archive &ar)
{
    ar.tag("vans");
    ar(lastRequestId());
    reqPool.serialize(ar);
    imcModel.serialize(ar);
}

std::uint64_t
VansSystem::totalRmwFills()
{
    std::uint64_t n = 0;
    for (unsigned i = 0; i < imcModel.numDimms(); ++i)
        n += imcModel.dimm(i).rmw().fills();
    return n;
}

std::uint64_t
VansSystem::totalMigrations()
{
    std::uint64_t n = 0;
    for (unsigned i = 0; i < imcModel.numDimms(); ++i)
        n += imcModel.dimm(i).ait().wearLeveler().migrations();
    return n;
}

std::uint64_t
VansSystem::totalMediaWrites()
{
    std::uint64_t n = 0;
    for (unsigned i = 0; i < imcModel.numDimms(); ++i)
        n += imcModel.dimm(i).ait().mediaDev().chunksWritten();
    return n;
}

std::uint64_t
VansSystem::dcacheScalarSum(const std::string &stat)
{
    std::uint64_t n = 0;
    for (unsigned i = 0; i < imcModel.numDimms(); ++i) {
        if (DramCache *dc = imcModel.dramCache(i))
            n += dc->stats().scalarValue(stat);
    }
    return n;
}

} // namespace vans::nvram
