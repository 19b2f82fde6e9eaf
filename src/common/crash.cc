#include "common/crash.hh"

#include <cstdio>
#include <unordered_set>

namespace vans::persist
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

// ---------------------------------------------------------------- //
// PersistenceChecker                                               //
// ---------------------------------------------------------------- //

void
PersistenceChecker::report(const char *rule, std::string detail,
                           Tick now)
{
    ++numViolations;
    monitor.report({"persist", rule, std::move(detail), now});
}

void
PersistenceChecker::onCachedWrite(Addr line, Tick now)
{
    (void)now;
    // A fresh cached store invalidates whatever discipline the line
    // had: an in-flight flush covers only the old data.
    lineMap[line].st = LineState::Dirty;
}

void
PersistenceChecker::onFlush(Addr line, Tick now)
{
    (void)now;
    Line &l = lineMap[line];
    l.st = LineState::FlushPending;
    l.flushSeq = ++flushCounter;
}

void
PersistenceChecker::onFenceIssued(std::uint64_t fence_id, Tick now)
{
    (void)now;
    fences.emplace_back(fence_id, flushCounter);
}

void
PersistenceChecker::onFenceComplete(std::uint64_t fence_id, Tick now)
{
    (void)now;
    std::uint64_t barrier = 0;
    bool found = false;
    std::size_t kept = 0;
    for (auto &f : fences) {
        if (!found && f.first == fence_id) {
            barrier = f.second;
            found = true;
        } else {
            fences[kept++] = f;
        }
    }
    fences.resize(kept);
    if (!found)
        return; // A fence this checker never saw issued.
    for (auto &[line, l] : lineMap) {
        (void)line;
        if (l.st == LineState::FlushPending && l.flushSeq <= barrier)
            l.st = LineState::Durable;
    }
}

void
PersistenceChecker::assumeDurable(Addr line, Tick now)
{
    auto it = lineMap.find(line);
    if (it == lineMap.end())
        return; // Never written: nothing to lose.
    switch (it->second.st) {
      case LineState::Clean:
      case LineState::Durable:
        return;
      case LineState::Dirty:
        report("unflushed-dirty",
               fmt("line %llx assumed durable while a cached store "
                   "was never flushed",
                   static_cast<unsigned long long>(line)),
               now);
        return;
      case LineState::FlushPending:
        report("unfenced-flush",
               fmt("line %llx assumed durable while its flush was "
                   "never covered by a completed fence",
                   static_cast<unsigned long long>(line)),
               now);
        return;
    }
}

PersistenceChecker::LineState
PersistenceChecker::state(Addr line) const
{
    auto it = lineMap.find(line);
    return it == lineMap.end() ? LineState::Clean : it->second.st;
}

std::size_t
PersistenceChecker::durableLines() const
{
    std::size_t n = 0;
    for (const auto &[line, l] : lineMap) {
        (void)line;
        if (l.st == LineState::Durable)
            ++n;
    }
    return n;
}

// ---------------------------------------------------------------- //
// CrashHarness                                                     //
// ---------------------------------------------------------------- //

bool
CrashHarness::Report::checkPrefixDurability(std::string &why) const
{
    // Longest matching prefix of the durable-write stream.
    std::size_t k = 0;
    while (k < writesIssued.size()) {
        const auto &[line, version] = writesIssued[k];
        if (!image.contains(line))
            break;
        if (image.versionOf(line) != version) {
            why = fmt("torn line %llx: durable version %llu, write "
                      "%zu recorded version %llu",
                      static_cast<unsigned long long>(line),
                      static_cast<unsigned long long>(
                          image.versionOf(line)),
                      k,
                      static_cast<unsigned long long>(version));
            return false;
        }
        ++k;
    }
    // No hole: nothing after the prefix may have survived.
    for (std::size_t j = k; j < writesIssued.size(); ++j) {
        if (image.contains(writesIssued[j].first)) {
            why = fmt("hole: write %zu (line %llx) durable while "
                      "write %zu (line %llx) is lost",
                      j,
                      static_cast<unsigned long long>(
                          writesIssued[j].first),
                      k,
                      static_cast<unsigned long long>(
                          writesIssued[k].first));
            return false;
        }
    }
    // No phantom: the image holds exactly the k prefix lines.
    if (image.lineCount() != k) {
        why = fmt("phantom: image holds %zu lines, the durable "
                  "prefix has %zu",
                  image.lineCount(), k);
        return false;
    }
    // No lost fenced line: the prefix covers every fenced write.
    if (k < fencedWrites) {
        why = fmt("lost fenced line: only %zu writes durable, %llu "
                  "were fenced before the cut",
                  k,
                  static_cast<unsigned long long>(fencedWrites));
        return false;
    }
    why.clear();
    return true;
}

CrashHarness::Report
CrashHarness::runToCrash(const SystemFactory &factory,
                         const std::vector<PmOp> &program,
                         Tick cut_tick, double op_gap_ns)
{
    Report rep;
    rep.cutTick = cut_tick;

    EventQueue eq;
    std::unique_ptr<MemorySystem> sys = factory(eq);
    VANS_REQUIRE("crash", 0, sys->persistSupported(),
                 "crash harness needs a persist-capable system "
                 "(got %s)",
                 sys->name().c_str());
    sys->enablePersistTracking();
    PersistenceChecker *pc = sys->persistenceChecker();

    bool cut = false;
    // The cut primitive: execute events strictly before the cut
    // tick, in order; the first event at or after it is the one the
    // power failure preempts.
    auto stepOne = [&]() -> bool {
        if (cut || eq.empty())
            return false;
        if (eq.nextAt() >= cut_tick) {
            cut = true;
            return false;
        }
        eq.step();
        return true;
    };

    // Software model of the CPU caches: which lines hold a cached
    // store that no flush has picked up yet. (The LENS-style request
    // path has no cache model; dirty lines produce no request until
    // flushed, which is exactly what makes them crash-vulnerable.)
    std::unordered_set<Addr> dirty;

    // Requests this harness issued that have not completed. This --
    // not eq.empty() -- is the drain condition: a model whose DRAM
    // path has been touched re-arms its refresh wakeup forever, so
    // the event queue of an idle world is never empty. It is the
    // cut-aware twin of MemorySystem::drain(): the shared helper
    // cannot be used here because every step must respect the cut
    // tick, but the "state predicate, never queue emptiness" rule
    // is the same one.
    std::uint64_t outstanding = 0;

    auto issueDurableWrite = [&](MemOp mop, Addr line) {
        RequestHandle h = sys->makeRequest(line, mop);
        ++outstanding;
        sys->request(h).onComplete = [&outstanding, p = &sys->pool(),
                                      h](Request &) {
            --outstanding;
            p->release(h);
        };
        sys->issue(h);
        // The id is assigned inside issue(); completion is always at
        // least one core-to-iMC hop away, so the handle is live here.
        rep.writesIssued.emplace_back(line, sys->request(h).id);
    };

    Tick gap = nsToTicks(op_gap_ns);
    for (const PmOp &op : program) {
        // Pace the instruction stream: one op per gap.
        bool fired = false;
        eq.schedule(eq.curTick() + gap, [&fired] { fired = true; });
        while (!fired && stepOne()) {
        }
        if (cut)
            break;

        Addr line = alignDown(op.addr, cacheLineSize);
        switch (op.kind) {
          case PmOp::Kind::Store:
            dirty.insert(line);
            if (pc)
                pc->onCachedWrite(line, eq.curTick());
            break;
          case PmOp::Kind::NtStore:
            // The NT store carries the freshest data for the line;
            // stale cached copies stop mattering.
            dirty.erase(line);
            issueDurableWrite(MemOp::WriteNT, line);
            break;
          case PmOp::Kind::Clwb:
          case PmOp::Kind::Clflushopt:
            // Flushing a clean line is a no-op at the cache; only a
            // dirty line produces a writeback request.
            if (dirty.erase(line) != 0) {
                issueDurableWrite(op.kind == PmOp::Kind::Clwb
                                      ? MemOp::Clwb
                                      : MemOp::Clflushopt,
                                  line);
            }
            break;
          case PmOp::Kind::Sfence: {
            RequestHandle h = sys->makeRequest(0, MemOp::Sfence, 0);
            bool done = false;
            std::uint64_t covered = rep.writesIssued.size();
            ++outstanding;
            sys->request(h).onComplete =
                [&rep, &done, &outstanding, covered,
                 p = &sys->pool(), h](Request &) {
                    done = true;
                    --outstanding;
                    ++rep.fencesCompleted;
                    if (covered > rep.fencedWrites)
                        rep.fencedWrites = covered;
                    p->release(h);
                };
            sys->issue(h);
            while (!done && stepOne()) {
            }
            break;
          }
        }
        if (cut)
            break;
    }

    // Let whatever is in flight run (or be preempted by the cut).
    // ADR acceptance is the completion point for every harness
    // request, so outstanding == 0 means the durable image can no
    // longer change; downstream media traffic past that point is
    // irrelevant to the crash.
    while (outstanding != 0 && stepOne()) {
    }
    rep.cutHappened = cut;
    rep.endTick = eq.curTick();

    // Power failure: the ADR domain drains to media, everything else
    // is lost. Requests in flight at the cut never complete; their
    // handles die with this world.
    sys->powerFail(rep.image);
    return rep;
}

std::unique_ptr<MemorySystem>
CrashHarness::restart(const SystemFactory &factory, EventQueue &eq,
                      const MediaImage &image)
{
    std::unique_ptr<MemorySystem> sys = factory(eq);
    sys->loadDurableImage(image);
    return sys;
}

std::vector<PmOp>
CrashHarness::loggedWrites(Addr base, unsigned records, bool nt)
{
    std::vector<PmOp> prog;
    prog.reserve(records * 3);
    for (unsigned i = 0; i < records; ++i) {
        Addr a = base + static_cast<Addr>(i) * cacheLineSize;
        if (nt) {
            prog.push_back({PmOp::Kind::NtStore, a});
        } else {
            prog.push_back({PmOp::Kind::Store, a});
            prog.push_back({PmOp::Kind::Clwb, a});
        }
        prog.push_back({PmOp::Kind::Sfence, 0});
    }
    return prog;
}

} // namespace vans::persist
