/**
 * @file
 * Tests for the observability layer (common/trace_event.hh,
 * common/metrics.hh): request lifecycle hop recording mirrors the
 * lifecycle checker's stage order, the Chrome trace-event exporter
 * emits well-formed JSON, the metrics registry reports exactly the
 * values StatGroup holds, and a world restored from a snapshot
 * records the same trace as the cold world it forked from.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstddef>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.hh"
#include "common/rng.hh"
#include "common/snapshot.hh"
#include "common/stats.hh"
#include "common/trace_event.hh"
#include "lens/driver.hh"
#include "nvram/vans_system.hh"
#include "tests/test_util.hh"

using namespace vans;

namespace
{

/** smallConfig with the trace recorder switched on. */
nvram::NvramConfig
tracedConfig()
{
    auto cfg = vans::test::smallConfig();
    cfg.trace = true;
    return cfg;
}

/**
 * Issue one op and run the queue until it completes. Returns the
 * still-held handle so the test can inspect the retired request
 * (the pool slot is not recycled until the handle is released, and
 * these short-lived worlds never need the slot back).
 */
RequestHandle
issueAndRun(EventQueue &eq, MemorySystem &sys, Addr addr, MemOp op)
{
    RequestHandle h = sys.makeRequest(addr, op);
    bool done = false;
    sys.request(h).onComplete = [&done](Request &) { done = true; };
    sys.issue(h);
    while (!done) {
        if (!eq.step()) {
            ADD_FAILURE() << "queue drained before completion";
            break;
        }
    }
    return h;
}

} // namespace

// ---- Disabled path --------------------------------------------------

TEST(Tracing, DisabledByDefault)
{
    vans::test::VansFixture f(vans::test::smallConfig());
    EXPECT_EQ(f.sys.tracer(), nullptr);
    auto h = issueAndRun(f.eq, f.sys, 0x1000, MemOp::ReadNT);
    // The untraced path must not attach hop state to the request.
    EXPECT_EQ(f.sys.request(h).trace, nullptr);
}

// ---- Lifecycle hops -------------------------------------------------

TEST(Tracing, HopsFollowLifecycleStageOrder)
{
    vans::test::VansFixture f(tracedConfig());
    ASSERT_NE(f.sys.tracer(), nullptr);

    for (MemOp op : {MemOp::ReadNT, MemOp::WriteNT}) {
        auto h = issueAndRun(f.eq, f.sys, 0x4040, op);
        Request &req = f.sys.request(h);
        ASSERT_NE(req.trace, nullptr) << memOpName(op);
        const auto &hops = req.trace->hops;
        // Exactly the checker's stage walk, in its only legal order.
        ASSERT_EQ(hops.size(), 4u) << memOpName(op);
        EXPECT_EQ(hops[0].stage, verify::ReqStage::Issued);
        EXPECT_EQ(hops[1].stage, verify::ReqStage::Queued);
        EXPECT_EQ(hops[2].stage, verify::ReqStage::Serviced);
        EXPECT_EQ(hops[3].stage, verify::ReqStage::Retired);
        for (std::size_t i = 0; i < hops.size(); ++i) {
            EXPECT_LE(hops[i].enter, hops[i].exit) << memOpName(op);
            if (i > 0) {
                EXPECT_EQ(hops[i - 1].exit, hops[i].enter)
                    << memOpName(op);
            }
        }
        EXPECT_EQ(hops.front().enter, req.issueTick);
        EXPECT_EQ(hops.back().exit, req.completeTick);
    }
}

TEST(Tracing, RetiredRequestsEmitAsyncSlicePairs)
{
    vans::test::VansFixture f(tracedConfig());
    auto *rec = f.sys.tracer();
    ASSERT_NE(rec, nullptr);
    rec->clear();

    auto h = issueAndRun(f.eq, f.sys, 0x8080, MemOp::ReadNT);
    Request &req = f.sys.request(h);

    std::size_t begins = 0;
    std::size_t ends = 0;
    for (const auto &e : rec->events()) {
        if (e.kind == obs::TraceEvent::Kind::AsyncBegin) {
            ++begins;
            EXPECT_EQ(e.id, req.id);
        }
        if (e.kind == obs::TraceEvent::Kind::AsyncEnd)
            ++ends;
    }
    // One begin/end pair per hop.
    EXPECT_EQ(begins, req.trace->hops.size());
    EXPECT_EQ(ends, begins);
}

// ---- Exporter JSON --------------------------------------------------

namespace
{

/**
 * Minimal JSON well-formedness scan: every brace/bracket balances,
 * with string literals (and escapes within them) skipped. Not a full
 * parser, but catches the realistic exporter bugs -- an unclosed
 * object, a quote broken by an unescaped name.
 */
bool
jsonBalanced(const std::string &s)
{
    std::vector<char> stack;
    bool in_str = false;
    for (std::size_t i = 0; i < s.size(); ++i) {
        char c = s[i];
        if (in_str) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_str = false;
            continue;
        }
        switch (c) {
          case '"':
            in_str = true;
            break;
          case '{':
          case '[':
            stack.push_back(c);
            break;
          case '}':
            if (stack.empty() || stack.back() != '{')
                return false;
            stack.pop_back();
            break;
          case ']':
            if (stack.empty() || stack.back() != '[')
                return false;
            stack.pop_back();
            break;
          default:
            break;
        }
    }
    return !in_str && stack.empty();
}

} // namespace

TEST(Tracing, ExporterEmitsBalancedJsonWithComponentTracks)
{
    vans::test::VansFixture f(tracedConfig());
    auto *rec = f.sys.tracer();
    ASSERT_NE(rec, nullptr);

    Rng rng(11);
    for (int n = 0; n < 40; ++n) {
        Addr a = rng.below(1u << 20) & ~static_cast<Addr>(63);
        if (rng.below(2))
            f.drv.write(a);
        else
            f.drv.read(a);
    }
    f.drv.fence();

    std::string json = rec->toChromeJson();
    EXPECT_TRUE(jsonBalanced(json)) << json.substr(0, 400);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);

    // Every interned component instance shows up as a named track.
    ASSERT_GT(rec->numTracks(), 0u);
    bool saw_lsq = false;
    bool saw_media = false;
    for (std::size_t t = 0; t < rec->numTracks(); ++t) {
        const std::string &name = rec->trackName(
            static_cast<obs::TrackId>(t));
        EXPECT_NE(json.find("\"name\":\"" + name + "\""),
                  std::string::npos)
            << "track " << name << " missing from metadata";
        if (name.find(".lsq") != std::string::npos)
            saw_lsq = true;
        if (name.find(".media") != std::string::npos)
            saw_media = true;
    }
    EXPECT_TRUE(saw_lsq);
    EXPECT_TRUE(saw_media);

    // The driver's op spans made it out as complete slices.
    EXPECT_NE(json.find("\"ph\":\"X\",\"name\":\"op_rd\""),
              std::string::npos);
}

TEST(Tracing, ExportedTimestampsAreMicrosecondTicks)
{
    obs::TraceRecorder rec;
    auto t = rec.track("unit");
    auto l = rec.label("one_op");
    // 1234567 ps = 1.234567 us: the exporter must not round this.
    rec.span(t, l, 1234567, 2234567);
    std::string json = rec.toChromeJson();
    EXPECT_NE(json.find("\"ts\":1.234567"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"dur\":1.000000"), std::string::npos);
    EXPECT_TRUE(jsonBalanced(json));
}

// ---- Metrics registry -----------------------------------------------

TEST(Metrics, JsonCarriesExactStatGroupValues)
{
    StatGroup g("unit.group");
    StatScalar reads{g, "reads"};
    StatScalar writes{g, "writes"};
    StatAverage queueDepth{g, "queue_depth"};
    StatDistribution d{g, "lat_ns"};
    reads.inc(7);
    writes.inc(3);
    queueDepth.sample(2.0);
    queueDepth.sample(4.0);
    for (int i = 1; i <= 100; ++i)
        d.sample(static_cast<double>(i));

    MetricsRegistry reg;
    reg.add(g);
    ASSERT_EQ(reg.size(), 1u);
    std::string json = reg.toJson();
    EXPECT_TRUE(jsonBalanced(json)) << json;

    EXPECT_NE(json.find("\"name\": \"unit.group\""),
              std::string::npos);
    EXPECT_NE(json.find("\"reads\": 7"), std::string::npos);
    EXPECT_NE(json.find("\"writes\": 3"), std::string::npos);
    // Average mean of {2, 4} is 3; min/max preserved.
    EXPECT_NE(json.find("\"queue_depth\": {\"mean\": 3, \"min\": 2, "
                        "\"max\": 4, \"count\": 2}"),
              std::string::npos)
        << json;
    // Distribution percentiles match StatDistribution's own answers.
    std::ostringstream want;
    want << "\"p50\": " << d.percentile(0.5)
         << ", \"p99\": " << d.percentile(0.99);
    EXPECT_NE(json.find(want.str()), std::string::npos) << json;
}

namespace
{

/**
 * Strict recursive-descent JSON parser: objects, arrays, strings,
 * numbers, true/false/null and nothing else. Unlike jsonBalanced it
 * rejects bare `nan`/`inf` tokens, trailing garbage and malformed
 * numbers -- exactly what a cold-counter registry used to risk
 * emitting. Returns true when the whole input is one valid value.
 */
struct StrictJson
{
    const std::string &s;
    std::size_t i = 0;

    explicit StrictJson(const std::string &text) : s(text) {}

    void skipWs()
    {
        while (i < s.size() && (s[i] == ' ' || s[i] == '\n' ||
                                s[i] == '\t' || s[i] == '\r'))
            ++i;
    }

    bool lit(const char *word)
    {
        std::size_t n = std::string(word).size();
        if (s.compare(i, n, word) != 0)
            return false;
        i += n;
        return true;
    }

    bool string()
    {
        if (i >= s.size() || s[i] != '"')
            return false;
        ++i;
        while (i < s.size() && s[i] != '"') {
            if (s[i] == '\\')
                ++i;
            ++i;
        }
        if (i >= s.size())
            return false;
        ++i;
        return true;
    }

    bool number()
    {
        std::size_t start = i;
        if (i < s.size() && s[i] == '-')
            ++i;
        std::size_t digits = i;
        while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])))
            ++i;
        if (i == digits)
            return false;
        if (i < s.size() && s[i] == '.') {
            ++i;
            while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])))
                ++i;
        }
        if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
            ++i;
            if (i < s.size() && (s[i] == '+' || s[i] == '-'))
                ++i;
            digits = i;
            while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])))
                ++i;
            if (i == digits)
                return false;
        }
        return i > start;
    }

    bool value()
    {
        skipWs();
        if (i >= s.size())
            return false;
        switch (s[i]) {
          case '{': {
            ++i;
            skipWs();
            if (i < s.size() && s[i] == '}') {
                ++i;
                return true;
            }
            for (;;) {
                skipWs();
                if (!string())
                    return false;
                skipWs();
                if (i >= s.size() || s[i] != ':')
                    return false;
                ++i;
                if (!value())
                    return false;
                skipWs();
                if (i < s.size() && s[i] == ',') {
                    ++i;
                    continue;
                }
                break;
            }
            if (i >= s.size() || s[i] != '}')
                return false;
            ++i;
            return true;
          }
          case '[': {
            ++i;
            skipWs();
            if (i < s.size() && s[i] == ']') {
                ++i;
                return true;
            }
            for (;;) {
                if (!value())
                    return false;
                skipWs();
                if (i < s.size() && s[i] == ',') {
                    ++i;
                    continue;
                }
                break;
            }
            if (i >= s.size() || s[i] != ']')
                return false;
            ++i;
            return true;
          }
          case '"':
            return string();
          case 't':
            return lit("true");
          case 'f':
            return lit("false");
          case 'n':
            return lit("null");
          default:
            return number();
        }
    }

    bool document()
    {
        if (!value())
            return false;
        skipWs();
        return i == s.size();
    }
};

bool
strictJsonParse(const std::string &text)
{
    StrictJson p(text);
    return p.document();
}

} // namespace

// Regression: a registry holding stats that never saw a sample
// (every Memory Mode counter before its first access) used to emit
// the accessors' 0 fallbacks, making a cold distribution
// indistinguishable from one that measured zero. Unmeasured
// min/max/mean/percentiles must serialize as null -- and the
// document must still satisfy a strict JSON parser.
TEST(Metrics, EmptyStatsSerializeAsNullAndRoundTrip)
{
    StatGroup g("cold.group", StatGroup::Listing::All);
    StatScalar touched{g, "touched"};
    StatAverage emptyAvg{g, "empty_avg"};       // Never sampled.
    StatDistribution emptyDist{g, "empty_dist"}; // Never sampled.
    StatDistribution one{g, "one_sample"};
    one.sample(42.5);

    MetricsRegistry reg;
    reg.add(g);
    std::string json = reg.toJson();

    // Strict round trip: the whole document is one valid JSON value.
    EXPECT_TRUE(strictJsonParse(json)) << json;

    // The empty average and distribution report null, not 0.
    EXPECT_NE(json.find("\"empty_avg\": {\"mean\": null, "
                        "\"min\": null, \"max\": null, \"count\": 0}"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"empty_dist\": {\"mean\": null, "
                        "\"min\": null, \"max\": null, "
                        "\"p50\": null, \"p99\": null, "
                        "\"p999\": null, \"count\": 0}"),
              std::string::npos)
        << json;

    // One sample: every percentile is that sample, numerically.
    EXPECT_NE(json.find("\"one_sample\": {\"mean\": 42.5, "
                        "\"min\": 42.5, \"max\": 42.5, "
                        "\"p50\": 42.5, \"p99\": 42.5, "
                        "\"p999\": 42.5, \"count\": 1}"),
              std::string::npos)
        << json;
}

TEST(Metrics, WhollyEmptyRegistryRoundTrips)
{
    // Zero groups: the degenerate document must also parse.
    MetricsRegistry reg;
    EXPECT_TRUE(strictJsonParse(reg.toJson())) << reg.toJson();

    // A NaN that reaches a sample stream (a ratio of two zero
    // counters, say) must not leak a bare nan token into the JSON.
    StatGroup g("poisoned.group");
    StatAverage ratio{g, "ratio"};
    ratio.sample(std::nan(""));
    reg.add(g);
    std::string json = reg.toJson();
    EXPECT_TRUE(strictJsonParse(json)) << json;
    EXPECT_EQ(json.find("nan"), std::string::npos) << json;
    EXPECT_NE(json.find("\"mean\": null"), std::string::npos) << json;
}

TEST(Metrics, SystemRegistersEveryComponentGroup)
{
    vans::test::VansFixture f(tracedConfig());
    Rng rng(23);
    for (int n = 0; n < 60; ++n) {
        Addr a = rng.below(1u << 20) & ~static_cast<Addr>(63);
        if (rng.below(2))
            f.drv.write(a);
        else
            f.drv.read(a);
    }
    f.drv.fence();

    MetricsRegistry reg;
    f.sys.metricsInto(reg);
    // imc + per-dimm (lsq, rmw, ait, media, wear, dram) + request
    // latency distributions + kernel counters.
    ASSERT_GE(reg.size(), 9u);

    // The registry reports the same object the component owns: a
    // scalar read through the registry equals the group's own value.
    for (const StatGroup *g : reg.all()) {
        for (const StatScalar *s : g->allScalars())
            EXPECT_EQ(s->value(), g->scalarValue(s->name()))
                << g->name() << "." << s->name();
    }

    // The traced run sampled per-op latency distributions.
    const auto &dists = f.sys.requestStats().allDistributions();
    ASSERT_TRUE(dists.count("read_latency_ns"));
    ASSERT_TRUE(dists.count("write_latency_ns"));
    const StatDistribution *reads = dists.find("read_latency_ns");
    EXPECT_GT(reads->count(), 0u);
    EXPECT_GT(reads->mean(), 0.0);

    std::string json = reg.toJson();
    EXPECT_TRUE(jsonBalanced(json));
    EXPECT_NE(json.find("read_latency_ns"), std::string::npos);
}

// ---- Snapshot / restore ---------------------------------------------

namespace
{

void
tracedWarm(MemorySystem &sys)
{
    lens::Driver drv(sys);
    Rng rng(7);
    for (int n = 0; n < 150; ++n) {
        Addr a = rng.below(1u << 20) & ~static_cast<Addr>(63);
        if (rng.below(3) == 0)
            drv.write(a);
        else
            drv.read(a);
    }
    drv.fence();
}

void
tracedPoint(MemorySystem &sys)
{
    lens::Driver drv(sys);
    Rng rng(91);
    for (int n = 0; n < 80; ++n) {
        Addr a = rng.below(1u << 20) & ~static_cast<Addr>(63);
        if (rng.below(2))
            drv.write(a);
        else
            drv.read(a);
    }
    drv.fence();
}

} // namespace

namespace
{

/**
 * Events of the measured window: spans opened at or after @p t0.
 * A posted write issued during warm-up may close (and record) its
 * span just after quiescence; such stragglers begin before t0 and
 * cannot appear in a forked world, whose recorder starts at t0.
 */
std::vector<obs::TraceEvent>
measuredEvents(const std::vector<obs::TraceEvent> &evs, Tick t0)
{
    std::vector<obs::TraceEvent> out;
    for (const auto &e : evs)
        if (e.begin >= t0)
            out.push_back(e);
    return out;
}

} // namespace

TEST(Tracing, RestoredWorldRecordsIdenticalTrace)
{
    setQuiet(true);
    auto cfg = tracedConfig();

    // Cold reference: warm, quiesce, drop the warm-up events, then
    // record the measured workload.
    EventQueue ref_eq;
    nvram::VansSystem ref_sys(ref_eq, cfg);
    tracedWarm(ref_sys);
    ref_sys.drain();
    Tick t0 = ref_eq.curTick();
    ASSERT_NE(ref_sys.tracer(), nullptr);
    ref_sys.tracer()->clear();
    tracedPoint(ref_sys);

    // Fork: identical warm-up in a prototype world, snapshot it, and
    // restore into a fresh traced world whose recorder starts empty.
    EventQueue proto_eq;
    nvram::VansSystem proto(proto_eq, cfg);
    tracedWarm(proto);
    proto.drain();
    auto snap = snapshot::WorldSnapshot::capture(proto_eq, proto);

    EventQueue fork_eq;
    nvram::VansSystem fork_sys(fork_eq, cfg);
    snap.restoreInto(fork_eq, fork_sys);
    ASSERT_NE(fork_sys.tracer(), nullptr);
    ASSERT_TRUE(fork_sys.tracer()->events().empty());
    tracedPoint(fork_sys);

    // The recorder is excluded from snapshots on purpose, yet the
    // restored world's measured trace must be event-for-event the
    // cold world's: same tracks (attach order is deterministic),
    // same request ids (lastRequestId is serialized), same ticks
    // (fork fidelity).
    auto ref_evs = measuredEvents(ref_sys.tracer()->events(), t0);
    auto fork_evs = measuredEvents(fork_sys.tracer()->events(), t0);
    ASSERT_FALSE(ref_evs.empty());
    ASSERT_EQ(fork_evs.size(), ref_evs.size());
    for (std::size_t i = 0; i < ref_evs.size(); ++i)
        ASSERT_TRUE(fork_evs[i] == ref_evs[i]) << "event " << i;
}
