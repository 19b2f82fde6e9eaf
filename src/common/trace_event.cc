#include "common/trace_event.hh"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/check.hh"
#include "common/logging.hh"

namespace vans::obs
{

bool
envTraceEnabled()
{
    // simlint-allow: written once on first use, read-only after.
    static const bool enabled = [] {
        const char *v = std::getenv("VANS_TRACE");
        if (!v)
            return false;
        std::string s(v);
        return s == "1" || s == "on" || s == "yes" || s == "true";
    }();
    return enabled;
}

const char *
reqStageName(verify::ReqStage s)
{
    switch (s) {
      case verify::ReqStage::Issued:
        return "Issued";
      case verify::ReqStage::Queued:
        return "Queued";
      case verify::ReqStage::Serviced:
        return "Serviced";
      case verify::ReqStage::Retired:
        return "Retired";
    }
    return "?";
}

TrackId
TraceRecorder::track(const std::string &name)
{
    auto it = trackIds.find(name);
    if (it != trackIds.end())
        return it->second;
    TrackId id = static_cast<TrackId>(trackNames.size());
    trackNames.push_back(name);
    trackIds.emplace(name, id);
    return id;
}

LabelId
TraceRecorder::label(const std::string &name)
{
    auto it = labelIds.find(name);
    if (it != labelIds.end())
        return it->second;
    LabelId id = static_cast<LabelId>(labelNames.size());
    labelNames.push_back(name);
    labelIds.emplace(name, id);
    return id;
}

void
TraceRecorder::span(TrackId t, LabelId l, Tick begin, Tick end)
{
    TraceEvent e;
    e.kind = TraceEvent::Kind::Span;
    e.track = t;
    e.label = l;
    e.begin = begin;
    e.end = end;
    evs.push_back(e);
}

void
TraceRecorder::spanAddr(TrackId t, LabelId l, Tick begin, Tick end,
                        Addr addr)
{
    TraceEvent e;
    e.kind = TraceEvent::Kind::Span;
    e.track = t;
    e.label = l;
    e.begin = begin;
    e.end = end;
    e.addr = addr;
    e.hasAddr = true;
    evs.push_back(e);
}

void
TraceRecorder::instant(TrackId t, LabelId l, Tick at)
{
    TraceEvent e;
    e.kind = TraceEvent::Kind::Instant;
    e.track = t;
    e.label = l;
    e.begin = at;
    evs.push_back(e);
}

void
TraceRecorder::instant(TrackId t, LabelId l, Tick at, Addr addr)
{
    TraceEvent e;
    e.kind = TraceEvent::Kind::Instant;
    e.track = t;
    e.label = l;
    e.begin = at;
    e.addr = addr;
    e.hasAddr = true;
    evs.push_back(e);
}

void
TraceRecorder::counter(TrackId t, LabelId l, Tick at, double value)
{
    TraceEvent e;
    e.kind = TraceEvent::Kind::Counter;
    e.track = t;
    e.label = l;
    e.begin = at;
    e.value = value;
    evs.push_back(e);
}

std::uint64_t
TraceRecorder::flowBegin(TrackId t, LabelId l, Tick at)
{
    TraceEvent e;
    e.kind = TraceEvent::Kind::FlowBegin;
    e.track = t;
    e.label = l;
    e.begin = at;
    e.id = nextFlowId++;
    evs.push_back(e);
    return e.id;
}

void
TraceRecorder::flowEnd(TrackId t, LabelId l, Tick at,
                       std::uint64_t flow_id)
{
    TraceEvent e;
    e.kind = TraceEvent::Kind::FlowEnd;
    e.track = t;
    e.label = l;
    e.begin = at;
    e.id = flow_id;
    evs.push_back(e);
}

void
TraceRecorder::onIssue(Request &r, Tick now)
{
    // The hop log is attached by the owning system (a recycled
    // per-slot ReqTrace from its RequestPool); a request without one
    // records nothing.
    if (!r.trace)
        return;
    r.trace->hops.clear();
    r.trace->hops.push_back({verify::ReqStage::Issued, now, now});
}

void
TraceRecorder::advanceHop(Request &r, verify::ReqStage to, Tick now)
{
    if (!r.trace || r.trace->hops.empty())
        return; // Issued elsewhere (untraced front end): ignore.
    ReqHop &open = r.trace->hops.back();
    // Re-queueing while waiting on a resource is legal (the
    // lifecycle checker allows it); only forward transitions open a
    // new hop.
    if (to <= open.stage)
        return;
    open.exit = now;
    r.trace->hops.push_back({to, now, now});
}

void
TraceRecorder::onQueued(Request &r, Tick now)
{
    advanceHop(r, verify::ReqStage::Queued, now);
}

void
TraceRecorder::onServiced(Request &r, Tick now)
{
    advanceHop(r, verify::ReqStage::Serviced, now);
}

void
TraceRecorder::onRetire(Request &r, Tick now)
{
    advanceHop(r, verify::ReqStage::Retired, now);
    if (!r.trace || r.trace->hops.empty())
        return;
    r.trace->hops.back().exit = now;
    // Emit each hop as a nested async slice keyed by the request id:
    // Perfetto groups same-id async events onto one request lane.
    for (const ReqHop &h : r.trace->hops) {
        TraceEvent b;
        b.kind = TraceEvent::Kind::AsyncBegin;
        b.label = label(reqStageName(h.stage));
        b.begin = h.enter;
        b.id = r.id;
        b.addr = r.addr;
        b.hasAddr = true;
        evs.push_back(b);
        TraceEvent e;
        e.kind = TraceEvent::Kind::AsyncEnd;
        e.label = b.label;
        e.begin = h.exit;
        e.id = r.id;
        evs.push_back(e);
    }
}

namespace
{

/** Chrome timestamps are microseconds; ticks are picoseconds. */
std::string
fmtTs(Tick t)
{
    // Render tick / 1e6 exactly: <us>.<6 digit remainder>.
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%llu.%06llu",
                  static_cast<unsigned long long>(t / 1000000),
                  static_cast<unsigned long long>(t % 1000000));
    return buf;
}

void
appendCommon(std::ostringstream &o, const char *ph,
             const std::string &name, unsigned tid, Tick ts)
{
    o << "{\"ph\":\"" << ph << "\",\"name\":\"" << name
      << "\",\"pid\":1,\"tid\":" << tid << ",\"ts\":" << fmtTs(ts);
}

} // namespace

std::string
TraceRecorder::toChromeJson() const
{
    std::ostringstream o;
    o << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    auto sep = [&first, &o] {
        if (!first)
            o << ",";
        first = false;
        o << "\n";
    };

    // Track metadata: one named thread per component instance. The
    // request lanes (async events) live on tid 0.
    sep();
    o << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,"
         "\"args\":{\"name\":\"vans\"}}";
    for (std::size_t t = 0; t < trackNames.size(); ++t) {
        sep();
        o << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
             "\"tid\":"
          << (t + 1) << ",\"args\":{\"name\":\"" << trackNames[t]
          << "\"}}";
        sep();
        o << "{\"ph\":\"M\",\"name\":\"thread_sort_index\",\"pid\":1,"
             "\"tid\":"
          << (t + 1) << ",\"args\":{\"sort_index\":" << (t + 1)
          << "}}";
    }

    for (const TraceEvent &e : evs) {
        unsigned tid = e.track + 1u;
        switch (e.kind) {
          case TraceEvent::Kind::Span: {
            sep();
            appendCommon(o, "X", labelNames[e.label], tid, e.begin);
            o << ",\"dur\":" << fmtTs(e.end - e.begin)
              << ",\"cat\":\"sim\"";
            if (e.hasAddr) {
                o << ",\"args\":{\"addr\":\"0x" << std::hex << e.addr
                  << std::dec << "\"}";
            }
            o << "}";
            break;
          }
          case TraceEvent::Kind::Instant: {
            sep();
            appendCommon(o, "i", labelNames[e.label], tid, e.begin);
            o << ",\"cat\":\"sim\",\"s\":\"t\"";
            if (e.hasAddr) {
                o << ",\"args\":{\"addr\":\"0x" << std::hex << e.addr
                  << std::dec << "\"}";
            }
            o << "}";
            break;
          }
          case TraceEvent::Kind::Counter: {
            sep();
            appendCommon(o, "C",
                         trackNames[e.track] + "." +
                             labelNames[e.label],
                         tid, e.begin);
            o << ",\"args\":{\"value\":" << e.value << "}}";
            break;
          }
          case TraceEvent::Kind::FlowBegin: {
            sep();
            appendCommon(o, "s", labelNames[e.label], tid, e.begin);
            o << ",\"cat\":\"flow\",\"id\":" << e.id << "}";
            break;
          }
          case TraceEvent::Kind::FlowEnd: {
            sep();
            appendCommon(o, "f", labelNames[e.label], tid, e.begin);
            o << ",\"cat\":\"flow\",\"bp\":\"e\",\"id\":" << e.id
              << "}";
            break;
          }
          case TraceEvent::Kind::AsyncBegin: {
            sep();
            appendCommon(o, "b", labelNames[e.label], 0, e.begin);
            o << ",\"cat\":\"request\",\"id\":" << e.id;
            if (e.hasAddr) {
                o << ",\"args\":{\"addr\":\"0x" << std::hex << e.addr
                  << std::dec << "\"}";
            }
            o << "}";
            break;
          }
          case TraceEvent::Kind::AsyncEnd: {
            sep();
            appendCommon(o, "e", labelNames[e.label], 0, e.begin);
            o << ",\"cat\":\"request\",\"id\":" << e.id << "}";
            break;
          }
        }
    }
    o << "\n]}\n";
    return o.str();
}

void
TraceRecorder::writeChromeJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write trace file '%s'", path.c_str());
    out << toChromeJson();
    if (!out)
        fatal("short write to trace file '%s'", path.c_str());
}

} // namespace vans::obs
