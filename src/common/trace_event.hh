/**
 * @file
 * Request-path tracing: a per-run span recorder with a Chrome
 * trace-event / Perfetto JSON exporter.
 *
 * The recorder is the observability mirror of the verification stack:
 * where the RequestLifecycleChecker *asserts* that every request walks
 * Issued -> Queued -> Serviced -> Retired, the TraceRecorder *records*
 * the same transitions (plus per-component activity spans) so a run
 * can be opened in Perfetto / chrome://tracing and read like a
 * flamegraph of simulated time. Both observers hang off the identical
 * call sites in the iMC and VansSystem, so instrumentation and
 * verification share one source of truth for what the stages mean.
 *
 * Model:
 *  - a *track* is one component instance (imc.ch0.bus, dimm0.lsq,
 *    dimm0.media.p3, ...), interned once at attach time;
 *  - a *span* is a [begin, end] tick interval on a track, optionally
 *    tagged with an address;
 *  - request lifecycle hops are accumulated on the Request itself
 *    (obs::ReqTrace) and emitted as nested async slices keyed by the
 *    request id when the request retires;
 *  - wear-leveling migrations emit flow events connecting the
 *    migration span (wear track) to every write stall it causes
 *    (AIT track).
 *
 * Disabled-path cost: components hold a raw `TraceRecorder *` that is
 * nullptr unless tracing is on (NvramConfig::trace or VANS_TRACE=1);
 * every instrumentation site is one branch on that cached pointer and
 * allocates nothing. simlint's `tracebyvalue` rule enforces the
 * pointer-only discipline in src/.
 *
 * Time: 1 tick = 1 ps (common/types.hh); the exporter emits Chrome's
 * microsecond timestamps as tick / 1e6 with full precision.
 */

#ifndef VANS_COMMON_TRACE_EVENT_HH
#define VANS_COMMON_TRACE_EVENT_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/lifecycle.hh"
#include "common/request.hh"
#include "common/types.hh"

namespace vans::obs
{

/** True when the VANS_TRACE environment variable enables tracing. */
bool envTraceEnabled();

/** Interned track (component instance) identifier. */
using TrackId = std::uint16_t;

/** Interned label (stage / operation name) identifier. */
using LabelId = std::uint16_t;

/** Stage name shared with the lifecycle checker's ReqStage order. */
const char *reqStageName(verify::ReqStage s);

/** One lifecycle hop of a request through a component stage. */
struct ReqHop
{
    verify::ReqStage stage;
    Tick enter = 0;
    Tick exit = 0;

    bool
    operator==(const ReqHop &o) const
    {
        return stage == o.stage && enter == o.enter && exit == o.exit;
    }
};

/** Per-request hop accumulator, allocated only when tracing is on. */
struct ReqTrace
{
    std::vector<ReqHop> hops;
};

/** One recorded trace event (POD; rendered to JSON at export). */
struct TraceEvent
{
    enum class Kind : std::uint8_t
    {
        Span,       ///< Complete slice [begin, end] on a track.
        Instant,    ///< Point-in-time marker on a track.
        Counter,    ///< Sampled counter value at a tick.
        FlowBegin,  ///< Flow arrow source (inside a span).
        FlowEnd,    ///< Flow arrow sink (inside a span).
        AsyncBegin, ///< Nested async slice open (request hops).
        AsyncEnd,   ///< Nested async slice close.
    };

    Kind kind;
    TrackId track = 0;
    LabelId label = 0;
    Tick begin = 0;
    Tick end = 0;             ///< Spans only.
    std::uint64_t id = 0;     ///< Flow / async (request) id.
    Addr addr = 0;            ///< Valid when hasAddr.
    double value = 0;         ///< Counters only.
    bool hasAddr = false;

    bool
    operator==(const TraceEvent &o) const
    {
        return kind == o.kind && track == o.track &&
               label == o.label && begin == o.begin && end == o.end &&
               id == o.id && addr == o.addr && value == o.value &&
               hasAddr == o.hasAddr;
    }
};

/** Per-run span recorder + Chrome trace-event JSON exporter. */
class TraceRecorder
{
  public:
    /** Intern @p name as a track; stable id for the run. */
    TrackId track(const std::string &name);

    /** Intern @p name as a span/instant/counter label. */
    LabelId label(const std::string &name);

    void span(TrackId t, LabelId l, Tick begin, Tick end);
    void spanAddr(TrackId t, LabelId l, Tick begin, Tick end,
                  Addr addr);
    void instant(TrackId t, LabelId l, Tick at);
    void instant(TrackId t, LabelId l, Tick at, Addr addr);
    void counter(TrackId t, LabelId l, Tick at, double value);

    /** Open a flow arrow inside an enclosing span. @return flow id. */
    std::uint64_t flowBegin(TrackId t, LabelId l, Tick at);

    /** Close flow @p flow_id inside an enclosing span on @p t. */
    void flowEnd(TrackId t, LabelId l, Tick at,
                 std::uint64_t flow_id);

    /**
     * Request lifecycle hops, mirroring RequestLifecycleChecker:
     * onIssue opens the hop list; each later stage closes the open
     * hop and opens the next; onRetire closes the list and emits the
     * hops as nested async slices keyed by the request id.
     */
    void onIssue(Request &r, Tick now);
    void onQueued(Request &r, Tick now);
    void onServiced(Request &r, Tick now);
    void onRetire(Request &r, Tick now);

    const std::vector<TraceEvent> &events() const { return evs; }

    /** Track name for @p t (export / tests). */
    const std::string &trackName(TrackId t) const
    {
        return trackNames[t];
    }
    std::size_t numTracks() const { return trackNames.size(); }

    /**
     * Drop recorded events (interned tables survive, so ids stay
     * stable). Used to cut warm-up noise out of a measured trace.
     */
    void clear() { evs.clear(); }

    /** Render the whole recording as Chrome trace-event JSON. */
    std::string toChromeJson() const;

    /** Write toChromeJson() to @p path (fatal on I/O error). */
    void writeChromeJson(const std::string &path) const;

  private:
    void advanceHop(Request &r, verify::ReqStage to, Tick now);

    std::vector<std::string> trackNames;
    std::vector<std::string> labelNames;
    std::unordered_map<std::string, TrackId> trackIds;
    std::unordered_map<std::string, LabelId> labelIds;
    std::vector<TraceEvent> evs;
    std::uint64_t nextFlowId = 1;
};

} // namespace vans::obs

#endif // VANS_COMMON_TRACE_EVENT_HH
