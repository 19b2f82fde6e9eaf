#include "lens/driver.hh"

#include "common/check.hh"
#include "common/logging.hh"
#include "common/trace_event.hh"

namespace vans::lens
{

Driver::Driver(MemorySystem &memory)
    : mem(memory), eq(memory.eventQueue())
{
    tracer = mem.tracer();
    if (tracer) [[unlikely]] {
        traceTrack = tracer->track("lens");
        lblRead = tracer->label("op_rd");
        lblWrite = tracer->label("op_wr");
        lblFence = tracer->label("op_fence");
        lblFlush = tracer->label("op_flush");
        lblSfence = tracer->label("op_sfence");
    }
}

void
Driver::runUntil(const std::function<bool()> &pred)
{
    while (!pred()) {
        if (!eq.step())
            panic("event queue drained before condition was met");
    }
}

void
Driver::drain()
{
    mem.drain();
}

void
Driver::idle(Tick ticks)
{
    Tick target = eq.curTick() + ticks;
    bool fired = false;
    eq.schedule(target, [&fired] { fired = true; });
    runUntil([&fired] { return fired; });
}

Tick
Driver::read(Addr addr, std::uint32_t size)
{
    RequestHandle h = mem.makeRequest(addr, MemOp::ReadNT, size);
    bool done = false;
    Tick lat = 0;
    mem.request(h).onComplete = [&done, &lat](Request &r) {
        done = true;
        lat = r.latency();
    };
    Tick start = eq.curTick();
    mem.issue(h);
    runUntil([&done] { return done; });
    mem.pool().release(h);
    // A zero-latency load would mean the model handed data back in
    // the issuing event -- a measurement artifact, not a memory.
    VANS_INVARIANT("lens.driver", eq.curTick(), lat > 0,
                   "read of %llx measured zero latency",
                   static_cast<unsigned long long>(addr));
    if (tracer) [[unlikely]]
        tracer->spanAddr(traceTrack, lblRead, start, start + lat,
                         addr);
    return lat;
}

Tick
Driver::write(Addr addr, std::uint32_t size)
{
    RequestHandle h = mem.makeRequest(addr, MemOp::WriteNT, size);
    bool done = false;
    Tick lat = 0;
    mem.request(h).onComplete = [&done, &lat](Request &r) {
        done = true;
        lat = r.latency();
    };
    Tick start = eq.curTick();
    mem.issue(h);
    runUntil([&done] { return done; });
    mem.pool().release(h);
    if (tracer) [[unlikely]]
        tracer->spanAddr(traceTrack, lblWrite, start, start + lat,
                         addr);
    return lat;
}

Tick
Driver::fence()
{
    RequestHandle h = mem.makeRequest(0, MemOp::Fence, 0);
    bool done = false;
    Tick lat = 0;
    mem.request(h).onComplete = [&done, &lat](Request &r) {
        done = true;
        lat = r.latency();
    };
    Tick start = eq.curTick();
    mem.issue(h);
    runUntil([&done] { return done; });
    mem.pool().release(h);
    if (tracer) [[unlikely]]
        tracer->span(traceTrack, lblFence, start, start + lat);
    return lat;
}

Tick
Driver::syncOp(Addr addr, MemOp op, std::uint32_t size,
               std::uint16_t lbl, bool span_addr)
{
    RequestHandle h = mem.makeRequest(addr, op, size);
    bool done = false;
    Tick lat = 0;
    mem.request(h).onComplete = [&done, &lat](Request &r) {
        done = true;
        lat = r.latency();
    };
    Tick start = eq.curTick();
    mem.issue(h);
    runUntil([&done] { return done; });
    mem.pool().release(h);
    if (tracer) [[unlikely]] {
        if (span_addr)
            tracer->spanAddr(traceTrack, lbl, start, start + lat,
                             addr);
        else
            tracer->span(traceTrack, lbl, start, start + lat);
    }
    return lat;
}

Tick
Driver::clwb(Addr addr)
{
    return syncOp(addr, MemOp::Clwb, cacheLineSize, lblFlush, true);
}

Tick
Driver::clflushopt(Addr addr)
{
    return syncOp(addr, MemOp::Clflushopt, cacheLineSize, lblFlush,
                  true);
}

Tick
Driver::sfence()
{
    return syncOp(0, MemOp::Sfence, 0, lblSfence, false);
}

Tick
Driver::persistBlockNt(Addr base, std::uint32_t block_bytes,
                       unsigned outstanding, double issue_gap_ns)
{
    Tick start = eq.curTick();
    unsigned lines = block_bytes / cacheLineSize;
    std::vector<Addr> addrs;
    addrs.reserve(lines);
    for (unsigned i = 0; i < lines; ++i)
        addrs.push_back(base + static_cast<Addr>(i) * cacheLineSize);
    streamOps(addrs, MemOp::WriteNT, outstanding,
              nsToTicks(issue_gap_ns));
    sfence();
    return eq.curTick() - start;
}

Tick
Driver::persistBlockCached(Addr base, std::uint32_t block_bytes,
                           unsigned outstanding, double issue_gap_ns)
{
    Tick start = eq.curTick();
    unsigned lines = block_bytes / cacheLineSize;
    std::vector<Addr> addrs;
    addrs.reserve(lines);
    for (unsigned i = 0; i < lines; ++i)
        addrs.push_back(base + static_cast<Addr>(i) * cacheLineSize);
    streamOps(addrs, MemOp::Clwb, outstanding,
              nsToTicks(issue_gap_ns));
    sfence();
    return eq.curTick() - start;
}

Tick
Driver::streamOps(const std::vector<Addr> &addrs, MemOp op,
                  unsigned max_in_flight, Tick issue_gap)
{
    if (addrs.empty())
        return 0;
    Tick start = eq.curTick();
    std::size_t issued = 0;
    std::size_t completed = 0;
    std::size_t in_flight = 0;
    Tick next_allowed = 0;

    while (completed < addrs.size()) {
        if (issued < addrs.size() && in_flight < max_in_flight) {
            if (eq.curTick() >= next_allowed) {
                RequestHandle h = mem.makeRequest(addrs[issued], op);
                // The stream loop never revisits a request: release
                // the slot right inside the completion callback.
                mem.request(h).onComplete =
                    [&completed, &in_flight, p = &mem.pool(),
                     h](Request &) {
                        ++completed;
                        --in_flight;
                        p->release(h);
                    };
                ++issued;
                ++in_flight;
                next_allowed = eq.curTick() + issue_gap;
                mem.issue(h);
                continue;
            }
            // Blocked only by the issue gap: advance to it.
            bool fired = false;
            eq.schedule(next_allowed, [&fired] { fired = true; });
            runUntil([&fired] { return fired; });
            continue;
        }
        std::size_t before = completed;
        runUntil([&completed, before] { return completed > before; });
    }
    // Every issued request must have retired before the elapsed time
    // is read off -- a leftover in-flight op would attribute its
    // latency to the next measurement phase.
    VANS_INVARIANT("lens.driver", eq.curTick(),
                   issued == addrs.size() && in_flight == 0,
                   "stream ended with %zu/%zu issued, %zu in flight",
                   issued, addrs.size(), in_flight);
    return eq.curTick() - start;
}

Tick
Driver::streamReads(const std::vector<Addr> &addrs, unsigned mlp)
{
    return streamOps(addrs, MemOp::ReadNT, mlp, 0);
}

Tick
Driver::streamWrites(const std::vector<Addr> &addrs,
                     unsigned outstanding, double issue_gap_ns)
{
    return streamOps(addrs, MemOp::WriteNT, outstanding,
                     nsToTicks(issue_gap_ns));
}

Tick
Driver::readBlock(Addr base, std::uint32_t block_bytes)
{
    Tick start = eq.curTick();
    // Dependent first line: the pointer itself.
    read(base);
    unsigned lines = block_bytes / cacheLineSize;
    if (lines > 1) {
        std::vector<Addr> rest;
        rest.reserve(lines - 1);
        for (unsigned i = 1; i < lines; ++i)
            rest.push_back(base + static_cast<Addr>(i) *
                                      cacheLineSize);
        streamReads(rest, 8);
    }
    return eq.curTick() - start;
}

Tick
Driver::writeBlock(Addr base, std::uint32_t block_bytes)
{
    Tick start = eq.curTick();
    unsigned lines = block_bytes / cacheLineSize;
    for (unsigned i = 0; i < lines; ++i)
        write(base + static_cast<Addr>(i) * cacheLineSize);
    return eq.curTick() - start;
}

} // namespace vans::lens
