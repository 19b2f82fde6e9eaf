#include "nvram/media.hh"

#include "common/check.hh"
#include "common/snapshot.hh"
#include "common/trace_event.hh"

namespace vans::nvram
{

XPointMedia::XPointMedia(EventQueue &eq, const NvramConfig &config)
    : eventq(eq),
      cfg(config),
      partitions(config.mediaPartitions),
      readTicks(nsToTicks(config.mediaReadNs)),
      writeTicks(nsToTicks(config.mediaWriteNs)),
      statGroup("media")
{}

void
XPointMedia::attachTracer(obs::TraceRecorder &rec,
                          const std::string &track_prefix)
{
    tracer = &rec;
    wiring.read = rec.label("chunk_rd");
    wiring.write = rec.label("chunk_wr");
    wiring.fill = rec.label("chunk_fill");
    wiring.tracks.resize(partitions.size());
    for (std::size_t i = 0; i < partitions.size(); ++i) {
        wiring.tracks[i] =
            rec.track(track_prefix + ".p" + std::to_string(i));
    }
}

unsigned
XPointMedia::partitionOf(Addr media_addr) const
{
    return static_cast<unsigned>(
        (media_addr / cfg.mediaChunkBytes) % partitions.size());
}

void
XPointMedia::kick(unsigned pi)
{
    Partition &p = partitions[pi];
    if (p.busy)
        return;
    // Demand reads outrank writes outrank background fills: a
    // pointer-chasing critical chunk must not queue behind the
    // previous miss's background fill.
    FifoRing<Op> *q = nullptr;
    if (!p.demand.empty())
        q = &p.demand;
    else if (!p.writes.empty())
        q = &p.writes;
    else if (!p.fills.empty())
        q = &p.fills;
    if (!q)
        return;

    Op op = std::move(q->front());
    q->pop_front();
    p.busy = true;
    Tick start = std::max(eventq.curTick(), p.freeAt);
    Tick finish = start + (op.write ? writeTicks : readTicks);
    p.freeAt = finish;
    (op.write ? writeQueueNs : readQueueNs)
        .sample(ticksToNs(start - eventq.curTick()));
    if (tracer) [[unlikely]] {
        tracer->spanAddr(wiring.tracks[pi],
                         op.write ? wiring.write
                                  : (op.fill ? wiring.fill : wiring.read),
                         start, finish, op.addr);
    }
    // Not capturing `finish`: freeAt only advances in kick() under
    // !busy, so it still holds this op's finish tick when the
    // completion runs -- and the capture stays within the event
    // kernel's inline budget (DoneCallback's 16-byte alignment would
    // otherwise pad the capture past it).
    eventq.schedule(finish, [this, pi,
                             done = std::move(op.done)]() mutable {
        Partition &p = partitions[pi];
        Tick end = p.freeAt;
        p.busy = false;
        if (done)
            done(end);
        kick(pi);
    });
}

void
XPointMedia::enqueue(Addr media_addr, bool write, Priority prio,
                     DoneCallback done)
{
    unsigned pi = partitionOf(media_addr);
    Partition &p = partitions[pi];
    (write ? chunkWrites : chunkReads).inc();
    Op op{write, std::move(done), media_addr,
          prio == Priority::Fill};
    switch (prio) {
      case Priority::Demand:
        p.demand.push_back(std::move(op));
        break;
      case Priority::Write:
        p.writes.push_back(std::move(op));
        break;
      case Priority::Fill:
        p.fills.push_back(std::move(op));
        break;
    }
    // Writers must respect canAccept(): the per-partition write
    // queue bound is what propagates media pressure upstream.
    VANS_REQUIRE("media", eventq.curTick(),
                 !write || p.writes.size() <= maxQueueDepth,
                 "write queue overflow on partition %u (%zu > %zu)",
                 pi, p.writes.size(), maxQueueDepth);
    kick(pi);
}

void
XPointMedia::readChunk(Addr media_addr, DoneCallback done)
{
    enqueue(media_addr, false, Priority::Demand, std::move(done));
}

void
XPointMedia::readChunkBackground(Addr media_addr, DoneCallback done)
{
    enqueue(media_addr, false, Priority::Fill, std::move(done));
}

void
XPointMedia::writeChunk(Addr media_addr, DoneCallback done)
{
    enqueue(media_addr, true, Priority::Write, std::move(done));
}

Tick
XPointMedia::partitionFreeAt(Addr media_addr) const
{
    return partitions[partitionOf(media_addr)].freeAt;
}

bool
XPointMedia::canAccept(Addr media_addr) const
{
    const Partition &p = partitions[partitionOf(media_addr)];
    return p.writes.size() < maxQueueDepth;
}

std::size_t
XPointMedia::fillBacklog() const
{
    std::size_t n = 0;
    for (const auto &p : partitions)
        n += p.fills.size();
    return n;
}

std::size_t
XPointMedia::pendingOps() const
{
    std::size_t n = 0;
    for (const auto &p : partitions) {
        n += p.demand.size() + p.writes.size() + p.fills.size() +
             (p.busy ? 1 : 0);
    }
    return n;
}

void
XPointMedia::serialize(snapshot::Archive &ar)
{
    VANS_REQUIRE("media", eventq.curTick(), quiescent(),
                 "snapshot with %zu media ops in flight",
                 pendingOps());
    ar.tag("media");
    ar.count("partition", partitions.size());
    for (Partition &p : partitions)
        ar(p.freeAt);
    statGroup.serialize(ar);
}

} // namespace vans::nvram
