#include "baselines/dram_system.hh"

namespace vans::baselines
{

DramMainMemory::DramMainMemory(EventQueue &eq,
                               const DramSystemParams &params,
                               std::string name)
    : MemorySystem(eq),
      p(params),
      sysName(std::move(name)),
      ctrl(eq, params.timing, params.geometry,
           dram::SchedPolicy::FRFCFS, dram::MapScheme::RowBankCol,
           sysName + ".ctrl"),
      statGroup(sysName)
{}

DramSystemParams
DramMainMemory::ddr4Params(std::uint64_t capacity)
{
    DramSystemParams p;
    p.timing = dram::DramTiming::ddr4_2666();
    p.geometry.capacityBytes = capacity;
    return p;
}

DramSystemParams
DramMainMemory::ddr3Params(std::uint64_t capacity)
{
    DramSystemParams p;
    p.timing = dram::DramTiming::ddr3_1600();
    p.geometry.capacityBytes = capacity;
    return p;
}

void
DramMainMemory::issue(RequestHandle h)
{
    Request &req = reqPool.get(h);
    req.id = nextRequestId();
    req.issueTick = eventq.curTick();
    switch (req.op) {
      case MemOp::Read:
      case MemOp::ReadNT:
        reads.inc();
        if (readsInFlight >= p.maxReads) {
            readWaiting.push_back(h);
            return;
        }
        startRead(h);
        break;
      case MemOp::Write:
      case MemOp::WriteNT:
      case MemOp::Clwb:
      case MemOp::Clflushopt:
        writes.inc();
        if (writesInFlight >= p.maxWrites) {
            writeWaiting.push_back(h);
            return;
        }
        startWrite(h);
        break;
      case MemOp::Fence:
      case MemOp::Sfence:
        // DRAM baselines have no ADR boundary: an sfence degenerates
        // to the full write-drain fence.
        pendingFences.push_back(h);
        checkFences();
        break;
    }
}

void
DramMainMemory::startRead(RequestHandle h)
{
    ++readsInFlight;
    Tick now = eventq.curTick();
    Tick front = nsToTicks(p.frontNs + p.extraReadNs);
    // Bandwidth throttle: accesses may not start closer together
    // than the configured spacing.
    Tick start = std::max(now + front, nextReadSlot);
    if (p.minReadSpacingNs > 0)
        nextReadSlot = start + nsToTicks(p.minReadSpacingNs);

    eventq.schedule(start, [this, h] {
        Request &r = reqPool.get(h);
        ctrl.access(r.addr, false, r.size, [this, h](Tick t) {
            Tick done = t + nsToTicks(p.frontNs);
            eventq.schedule(done, [this, h, done] {
                // complete() may release the handle; the request is
                // not touched after it.
                reqPool.get(h).complete(done);
                --readsInFlight;
                if (!readWaiting.empty()) {
                    RequestHandle next = readWaiting.front();
                    readWaiting.pop_front();
                    startRead(next);
                }
            });
        });
    });
}

void
DramMainMemory::startWrite(RequestHandle h)
{
    ++writesInFlight;
    Tick now = eventq.curTick();
    Tick front = nsToTicks(p.frontNs + p.extraWriteNs);
    bool throttle = p.minWriteSpacingNs > 0 &&
                    (!p.throttleNtWritesOnly ||
                     reqPool.get(h).op == MemOp::WriteNT);
    Tick start = now + front;
    if (throttle) {
        start = std::max(start, nextWriteSlot);
        nextWriteSlot = start + nsToTicks(p.minWriteSpacingNs);
    }

    eventq.schedule(start, [this, h, start] {
        // Posted write: the issuer unblocks at controller
        // acceptance; the data movement continues underneath. The
        // address and size are read out *before* complete() --
        // completion hands ownership back to the issuer, who may
        // release (and recycle) the slot immediately.
        Request &r = reqPool.get(h);
        Addr addr = r.addr;
        std::uint32_t size = r.size;
        r.complete(start);
        ctrl.access(addr, true, size, [this](Tick) {
            --writesInFlight;
            checkFences();
            if (!writeWaiting.empty()) {
                RequestHandle next = writeWaiting.front();
                writeWaiting.pop_front();
                startWrite(next);
            }
        });
    });
}

void
DramMainMemory::checkFences()
{
    if (pendingFences.empty())
        return;
    if (writesInFlight == 0 && writeWaiting.empty()) {
        Tick now = eventq.curTick();
        for (RequestHandle f : pendingFences)
            reqPool.get(f).complete(now);
        pendingFences.clear();
    }
}

PmepSystem::PmepSystem(EventQueue &eq, std::uint64_t capacity,
                       std::string name)
    : DramMainMemory(eq, pmepParams(capacity), std::move(name))
{}

DramSystemParams
PmepSystem::pmepParams(std::uint64_t capacity)
{
    DramSystemParams p = DramMainMemory::ddr4Params(capacity);
    // PMEP: stall the CPU extra cycles per access and throttle
    // bandwidth. The emulated NVRAM "latency" knob was typically set
    // to ~2x DRAM; the bandwidth throttle penalises every store
    // equally -- which is why PMEP orders store >= store-nt while
    // real Optane is the other way around (Fig 1a).
    p.extraReadNs = 65;
    p.extraWriteNs = 40;
    p.minReadSpacingNs = 10;  // ~6.4 GB/s cap.
    p.minWriteSpacingNs = 32; // ~2 GB/s: NT stores throttled hard,
                              // which is the Fig 1a inversion -- the
                              // emulator prices NT stores *below*
                              // its loads and cached stores.
    p.throttleNtWritesOnly = true;
    return p;
}

PcmSystem::PcmSystem(EventQueue &eq, std::uint64_t capacity,
                     std::string name)
    : DramMainMemory(eq, pcmParams(capacity), std::move(name))
{}

DramSystemParams
PcmSystem::pcmParams(std::uint64_t capacity)
{
    DramSystemParams p;
    p.timing = dram::DramTiming::pcmLike();
    p.geometry.capacityBytes = capacity;
    return p;
}

} // namespace vans::baselines
