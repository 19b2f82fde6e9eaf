#include "dram/controller.hh"

#include <algorithm>

#include "common/check.hh"
#include "common/logging.hh"
#include "common/snapshot.hh"
#include "common/trace_event.hh"

namespace vans::dram
{

namespace
{

/** FR-FCFS scheduler windows: how many queued lines a decision may
 *  pick from. */
constexpr unsigned readWindow = 64;
constexpr unsigned writeWindow = 32;

} // namespace

DramController::Queue::Queue(unsigned window_lines, bool is_write,
                             unsigned num_banks)
    : window(window_lines), write(is_write), slots(window_lines),
      lists(num_banks)
{
    for (unsigned i = 0; i + 1 < window; ++i)
        slots[i].next = static_cast<std::uint16_t>(i + 1);
    active.reserve(std::min(window, num_banks));
}

DramController::DramController(EventQueue &eq, const DramTiming &timing,
                               const DramGeometry &geometry,
                               SchedPolicy sched_policy, MapScheme ms,
                               std::string name)
    : eventq(eq),
      spec(timing),
      ticks(spec),
      map(geometry, ms),
      policy(sched_policy),
      banks(geometry.totalBanks()),
      readQueue(policy == SchedPolicy::FCFS ? 1 : readWindow, false,
                geometry.totalBanks()),
      writeQueue(policy == SchedPolicy::FCFS ? 1 : writeWindow, true,
                 geometry.totalBanks()),
      lastCasInGroup(geometry.ranks * geometry.bankGroups, 0),
      lastActInGroup(geometry.ranks * geometry.bankGroups, 0),
      nextRefresh(spec.tREFI ? ticks.tREFI : never),
      statGroup(std::move(name), StatGroup::Listing::All)
{
    // LineReq packs the bank, row and column into 16, 32 and 16 bits.
    if (banks.size() > 0xffff || geometry.rowsPerBank() > 0xffffffffull ||
        geometry.rowBytes / cacheLineSize > 0x10000)
        fatal("DRAM geometry too large for %s's line requests",
              statGroup.name().c_str());
    if (verify::envEnabled())
        enableOnlineCheck();
}

void
DramController::enableOnlineCheck()
{
    if (!checker)
        // simlint-allow(hotpath: one-shot setup called before the
        // run starts, never from an event)
        checker = std::make_unique<Ddr4Checker>(spec, map.geometry());
}

void
DramController::attachTracer(obs::TraceRecorder &rec,
                             const std::string &track_name)
{
    tracer = &rec;
    wiring.track = rec.track(track_name);
    wiring.read = rec.label("dram_rd");
    wiring.write = rec.label("dram_wr");
}

DramController::~DramController()
{
    if (!checker || checker->violations().empty())
        return;
    const Violation &v = checker->violations().front();
    panic("DDR4 protocol violation in %s: %s at cmd %zu: %s "
          "(%zu total violations over %llu commands)",
          statGroup.name().c_str(), v.rule.c_str(), v.cmdIndex,
          v.detail.c_str(), checker->violations().size(),
          static_cast<unsigned long long>(checker->commandsChecked()));
}

void
DramController::emit(DramCmd type, Tick at, unsigned bank,
                     std::uint64_t row, std::uint64_t column)
{
    const auto &g = map.geometry();
    const DramCommand cmd{at, type, bank / (g.banksPerGroup * g.bankGroups),
                          groupOf(bank) % g.bankGroups,
                          bank % g.banksPerGroup, row, column};
    cmdTrace.record(cmd);
    if (checker)
        checker->feed(cmd);
}

std::uint32_t
DramController::allocParent(unsigned remaining, DoneCallback done)
{
    std::uint32_t idx;
    if (freeParents.empty()) {
        idx = static_cast<std::uint32_t>(parents.size());
        // simlint-allow(hotpath: slab growth is amortized -- only a
        // new peak of in-flight accesses reaches this branch)
        parents.emplace_back();
    } else {
        idx = freeParents.back();
        freeParents.pop_back();
    }
    Parent &p = parents[idx];
    p.remaining = remaining;
    p.done = std::move(done);
    return idx;
}

void
DramController::releaseParent(std::uint32_t idx)
{
    parents[idx].done = nullptr;
    freeParents.push_back(idx);
}

void
DramController::access(Addr addr, bool write, std::uint32_t size,
                       DoneCallback done)
{
    unsigned lines = (size + cacheLineSize - 1) / cacheLineSize;
    if (lines == 0)
        lines = 1;

    // The lines share one recycled fan-in slot and take consecutive
    // seqs. They fill the window while it has room (it has none while
    // earlier lines wait behind it); the rest wait as one run.
    Addr line = alignDown(addr, cacheLineSize);
    Queue::Run run{map.decode(line), line, eventq.curTick(), nextSeq,
                   lines, allocParent(lines, std::move(done))};
    nextSeq += lines;
    Queue &q = write ? writeQueue : readQueue;
    q.depth += lines;
    while (run.lines && q.windowLines < q.window)
        join(q, run);
    if (run.lines)
        q.backlog.push_back(run);
    (write ? writeAccesses : readAccesses).inc();
    (write ? bytesWritten : bytesRead).inc(size);
    planValid = false;
    scheduleWakeup(eventq.curTick());
}

void
DramController::scheduleWakeup(Tick when)
{
    when = std::max(when, eventq.curTick());
    if (wakeupScheduled && wakeupAt <= when)
        return;
    wakeupScheduled = true;
    wakeupAt = when;
    armWakeup();
}

void
DramController::armWakeup()
{
    Tick when = wakeupAt;
    eventq.schedule(when, [this, when] {
        if (wakeupScheduled && wakeupAt == when) {
            wakeupScheduled = false;
            process();
        }
    });
}

Tick
DramController::earliestIssue(unsigned bank, bool hit, bool write) const
{
    const BankState &b = banks[bank];
    const unsigned g = groupOf(bank);
    Tick t = cmdBusFree;
    if (hit) {
        // CAS path.
        t = std::max(t, b.casReady);
        Tick ccd = std::max(lastCasInGroup[g] + ticks.tCCD_L,
                            lastCasAny + ticks.tCCD_S);
        t = std::max(t, ccd);
        if (!write) {
            // tWTR: write data end -> read CAS.
            t = std::max(t, lastWrDataEnd + ticks.tWTR_L);
        }
        t = std::max(t, dataBusFree);
        return t;
    }
    if (b.open) {
        // Row conflict: need PRE first.
        return std::max(t, b.preReady);
    }
    // Closed: need ACT.
    t = std::max(t, b.actReady);
    Tick rrd = std::max(lastActInGroup[g] + ticks.tRRD_L,
                        lastActAny + ticks.tRRD_S);
    t = std::max(t, rrd);
    if (actWindow.size() >= 4)
        t = std::max(t, actWindow.front() + ticks.tFAW);
    return t;
}

void
DramController::issueAct(const LineReq &r)
{
    BankState &b = banks[r.bank];
    Tick now = eventq.curTick();
    b.open = true;
    b.row = r.row;
    b.casReady = now + ticks.tRCD;
    b.preReady = now + ticks.tRAS;
    b.actReady = now + ticks.tRC;

    lastActInGroup[groupOf(r.bank)] = now;
    lastActAny = now;
    actWindow.push_back(now);
    while (actWindow.size() > 4)
        actWindow.pop_front();

    cmdBusFree = now + ticks.tCK;
    cmdAct.inc();
    emit(DramCmd::ACT, now, r.bank, r.row, 0);
    recountHits(r.bank);
}

void
DramController::issuePre(unsigned bank)
{
    BankState &b = banks[bank];
    Tick now = eventq.curTick();
    b.open = false;
    b.actReady = std::max(b.actReady, now + ticks.tRP);
    cmdBusFree = now + ticks.tCK;
    cmdPre.inc();
    emit(DramCmd::PRE, now, bank, b.row, 0);
    recountHits(bank);
}

void
DramController::issueCas(const LineReq &r)
{
    BankState &b = banks[r.bank];
    Tick now = eventq.curTick();
    Tick lat = r.write ? ticks.tCWL : ticks.tCL;
    Tick data_start = now + lat;
    Tick data_end = data_start + ticks.burst;

    dataBusFree = data_end;
    lastCasInGroup[groupOf(r.bank)] = now;
    lastCasAny = now;

    if (r.write) {
        lastWrDataEnd = data_end;
        // Write recovery gates the next PRE of this bank.
        b.preReady = std::max(b.preReady, data_end + ticks.tWR);
        cmdWr.inc();
    } else {
        b.preReady = std::max(b.preReady, now + ticks.tRTP);
        cmdRd.inc();
    }

    cmdBusFree = now + ticks.tCK;
    emit(r.write ? DramCmd::WR : DramCmd::RD, now, r.bank, r.row,
         r.column);

    // The access completes with its last line's data. The data bus
    // serializes bursts, so the last CAS has the latest data end.
    std::uint32_t pi = r.parentIdx;
    if (--parents[pi].remaining != 0)
        return;
    Tick enq = r.enqueueTick;
    bool write = r.write;
    eventq.schedule(data_end, [this, pi, data_end, enq, write] {
        (write ? writeLatency : readLatency)
            .sample(ticksToNs(data_end - enq));
        if (tracer) [[unlikely]] {
            tracer->span(wiring.track, write ? wiring.write : wiring.read,
                         enq, data_end);
        }
        // Move the callback out and recycle the slot first: the
        // callback may re-enter access(), which may take the slot.
        DoneCallback done = std::move(parents[pi].done);
        releaseParent(pi);
        if (done)
            done(data_end);
    });
}

void
DramController::doRefresh()
{
    Tick now = eventq.curTick();
    // Close every open bank first (the process() caller already
    // waited for each bank's preReady), then refresh after tRP.
    for (unsigned i = 0; i < banks.size(); ++i) {
        BankState &b = banks[i];
        if (b.open) {
            cmdPre.inc();
            emit(DramCmd::PRE, now, i, b.row, 0);
            b.open = false;
            recountHits(i);
        }
    }
    Tick ref_at = now + ticks.tRP;
    for (auto &b : banks)
        b.actReady = std::max(b.actReady, ref_at + ticks.tRFC);
    cmdBusFree = std::max(cmdBusFree, ref_at + ticks.tCK);
    cmdRef.inc();
    emit(DramCmd::REF, ref_at, 0, 0, 0);
    nextRefresh += ticks.tREFI;
    refreshPending = false;
}

Tick
DramController::refreshReady() const
{
    Tick ready = cmdBusFree;
    for (const auto &b : banks) {
        if (b.open)
            ready = std::max(ready, b.preReady);
    }
    return ready;
}

void
DramController::join(Queue &q, Queue::Run &run)
{
    std::uint16_t s = q.freeSlot;
    Queue::Slot &slot = q.slots[s];
    q.freeSlot = slot.next;
    LineReq &r = slot.req;
    r.enqueueTick = run.enqueueTick;
    r.seq = run.seq++;
    r.row = static_cast<std::uint32_t>(run.coord.row);
    r.parentIdx = run.parentIdx;
    r.column = static_cast<std::uint16_t>(run.coord.column);
    r.bank = static_cast<std::uint16_t>(bankIndex(run.coord));
    r.write = q.write;
    r.classified = false;
    if (--run.lines) {
        run.addr += cacheLineSize;
        if (!map.stepColumn(run.coord))
            run.coord = map.decode(run.addr);
    }
    ++q.windowLines;

    Queue::BankList &l = q.lists[r.bank];
    slot.prev = l.tail;
    slot.next = Queue::none;
    if (l.count == 0) {
        l.head = s;
        l.activeAt = static_cast<std::uint16_t>(q.active.size());
        q.active.push_back(r.bank);
    } else {
        q.slots[l.tail].next = s;
    }
    l.tail = s;
    ++l.count;
    l.hits += isOpen(r.bank, r.row);
}

void
DramController::retire(Queue &q, std::uint16_t s)
{
    Queue::Slot &slot = q.slots[s];
    const LineReq &r = slot.req;
    Queue::BankList &l = q.lists[r.bank];
    (slot.prev == Queue::none ? l.head : q.slots[slot.prev].next) =
        slot.next;
    (slot.next == Queue::none ? l.tail : q.slots[slot.next].prev) =
        slot.prev;
    --l.count;
    l.hits -= isOpen(r.bank, r.row);
    if (l.count == 0) {
        // Move the last active bank into this one's place.
        std::uint16_t moved = q.active.back();
        q.active[l.activeAt] = moved;
        q.lists[moved].activeAt = l.activeAt;
        q.active.pop_back();
    }
    slot.next = q.freeSlot;
    q.freeSlot = s;
    --q.windowLines;
    --q.depth;
    if (!q.backlog.empty()) {
        join(q, q.backlog.front());
        if (q.backlog.front().lines == 0)
            q.backlog.pop_front();
    }
}

void
DramController::recountHits(unsigned bank)
{
    const BankState &b = banks[bank];
    for (Queue *q : {&readQueue, &writeQueue}) {
        Queue::BankList &l = q->lists[bank];
        l.hits = 0;
        if (!b.open)
            continue;
        for (std::uint16_t s = l.head; s != Queue::none;
             s = q->slots[s].next)
            l.hits += q->slots[s].req.row == b.row;
    }
}

std::uint16_t
DramController::oldest(const Queue &q, unsigned bank, bool hit) const
{
    std::uint16_t s = q.lists[bank].head;
    while (isOpen(bank, q.slots[s].req.row) != hit)
        s = q.slots[s].next;
    return s;
}

bool
DramController::indexConsistent(const Queue &q) const
{
    std::size_t lines = 0;
    for (std::uint16_t bank : q.active) {
        const Queue::BankList &l = q.lists[bank];
        unsigned count = 0;
        unsigned hits = 0;
        for (std::uint16_t s = l.head; s != Queue::none;
             s = q.slots[s].next) {
            ++count;
            hits += isOpen(bank, q.slots[s].req.row);
        }
        if (count == 0 || count != l.count || hits != l.hits)
            return false;
        lines += count;
    }
    return lines == q.windowLines &&
           (q.backlog.empty() || lines == q.window);
}

DramController::Decision
DramController::pick(Queue &q, Tick t)
{
    VANS_AUDIT("dram", t, indexConsistent(q),
               "%s: window index drifted from its queue",
               statGroup.name().c_str());
    Decision d{never, &q};
    bool d_hit = false;
    std::uint64_t d_seq = 0;
    for (std::uint16_t bank : q.active) {
        const Queue::BankList &l = q.lists[bank];
        for (bool hit : {true, false}) {
            if ((hit ? l.hits : l.count - l.hits) == 0)
                continue;
            Tick at = std::max(earliestIssue(bank, hit, q.write), t);
            if (at > d.at || (at == d.at && d_hit && !hit))
                continue;
            std::uint16_t s = oldest(q, bank, hit);
            std::uint64_t seq = q.slots[s].req.seq;
            if (at == d.at && hit == d_hit && seq > d_seq)
                continue;
            d.at = at;
            d.slot = s;
            d_hit = hit;
            d_seq = seq;
        }
    }
    return d;
}

DramController::Decision
DramController::decide(Tick t)
{
    // Refresh has priority once due: wait until every open bank may
    // precharge.
    if (refreshDue(t))
        return {std::max(t, refreshReady())};
    // Idle: the next command is the refresh.
    if (readQueue.empty() && writeQueue.empty())
        return {spec.tREFI ? std::max(nextRefresh, refreshReady())
                           : never};
    Decision d{never};
    if (policy == SchedPolicy::FCFS) {
        // Strict arrival order across both queues. Each window is its
        // queue's front line, in the only slot.
        bool read_first =
            !readQueue.empty() &&
            (writeQueue.empty() ||
             readQueue.slots[0].req.seq < writeQueue.slots[0].req.seq);
        d = pick(read_first ? readQueue : writeQueue, t);
    } else if (!readQueue.empty()) {
        // Strict read priority: while any read is queued, writes
        // hold. A continuous write stream would otherwise keep
        // pushing the write-to-read turnaround (tWTR) ahead of a
        // waiting read forever; writes are posted and drain in the
        // read-free gaps.
        d = pick(readQueue, t);
    } else {
        d = pick(writeQueue, t);
    }
    // If refresh falls due before the request can issue, it goes
    // first.
    if (refreshDue(d.at))
        return {std::max(d.at, refreshReady())};
    return d;
}

void
DramController::process()
{
    Tick now = eventq.curTick();
    // The plan made after the last command holds until an access
    // arrives; nothing else changes what can issue.
    if (!planValid || plan.at != now)
        plan = decide(now);
    planValid = true;
    if (plan.at == now) {
        if (!plan.queue)
            doRefresh();
        else if (issueFor(plan.queue->slots[plan.slot].req))
            retire(*plan.queue, plan.slot);
        // The command bus is busy for one tCK: plan the next command
        // from then on and wake exactly when it issues.
        plan = decide(now + ticks.tCK);
    }
    if (plan.at != never)
        scheduleWakeup(plan.at);
}

void
DramController::serialize(snapshot::Archive &ar)
{
    VANS_REQUIRE("dram", eventq.curTick(),
                 readQueue.empty() && writeQueue.empty(),
                 "snapshot with %zu line requests queued",
                 queueDepth());
    ar.tag("dram-ctrl");
    std::string who = statGroup.name();
    ar(who);
    VANS_REQUIRE("dram", eventq.curTick(), who == statGroup.name(),
                 "controller mismatch: stream has \"%s\", "
                 "restorer is \"%s\"",
                 who.c_str(), statGroup.name().c_str());
    ar.count("bank", banks.size());
    for (BankState &b : banks)
        ar(b.open, b.row, b.actReady, b.casReady, b.preReady);
    ar(nextSeq);
    ar.count("group", lastCasInGroup.size());
    for (std::size_t g = 0; g < lastCasInGroup.size(); ++g)
        ar(lastCasInGroup[g], lastActInGroup[g]);
    ar(lastCasAny, lastActAny);
    // The tFAW window, oldest ACT first.
    std::uint64_t acts = actWindow.size();
    ar(acts);
    if (ar.loading())
        actWindow.clear();
    for (std::uint64_t i = 0; i < acts; ++i) {
        Tick t = ar.loading() ? 0 : actWindow.at(i);
        ar(t);
        if (ar.loading())
            actWindow.push_back(t);
    }
    ar(lastWrDataEnd, dataBusFree, cmdBusFree);
    ar(nextRefresh, refreshPending, wakeupScheduled, wakeupAt);
    statGroup.serialize(ar);
    bool checked = checker != nullptr;
    ar(checked);
    VANS_REQUIRE("dram", eventq.curTick(), checked == (checker != nullptr),
                 "%s: the stream %s an online-checker section; capture "
                 "and restore must both run with VANS_VERIFY or both "
                 "without",
                 statGroup.name().c_str(), checked ? "has" : "lacks");
    if (checker)
        checker->serialize(ar);
    if (ar.loading()) {
        // Re-arm the refresh wakeup the captured world had pending.
        // It runs before any post-restore work because restore
        // happens before the caller issues anything new, and decides
        // afresh.
        planValid = false;
        if (wakeupScheduled)
            armWakeup();
    }
}

bool
DramController::issueFor(LineReq &r)
{
    // Hit/miss/conflict classification happens once per line
    // request, at its first service attempt.
    BankState &b = banks[r.bank];
    if (b.open && b.row == r.row) {
        if (!r.classified)
            rowHits.inc();
        r.classified = true;
        issueCas(r);
        return true;
    }
    if (b.open) {
        if (!r.classified)
            rowConflicts.inc();
        r.classified = true;
        issuePre(r.bank);
        return false;
    }
    if (!r.classified)
        rowMisses.inc();
    r.classified = true;
    issueAct(r);
    return false;
}

} // namespace vans::dram
