/**
 * @file
 * Regression tests for generator/parser bugs found in the
 * observability sweep. Each test fails on the pre-fix code:
 *  - Zipfian::next could return rank == n when the uniform draw
 *    landed close enough to 1.0 (out-of-range hot-key index);
 *  - logSweep(0, hi, f) spun forever because 0 * factor stays 0;
 *  - Config::parseSize cast negative / non-finite doubles straight
 *    to uint64_t (undefined behavior) and rejected a plain "b"
 *    byte suffix;
 *  - writeTraceFile emitted an address and dependency flag for
 *    Fence lines that readTraceFile never parses, so a trace did
 *    not survive a write -> read -> write round trip;
 *  - NvramConfig::validate accepted sizes, queue depths and a hop
 *    latency no world can run with: SIGFPEs, hangs and mid-run
 *    panics instead of a parse-time error naming the key;
 *  - NvramConfig::fromConfig ignored an [nvram] or [trace] key it
 *    did not read, so a misspelled key ran on the default.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/curve.hh"
#include "common/event_queue.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "nvram/vans_system.hh"
#include "trace/trace.hh"
#include "workloads/zipfian.hh"

using namespace vans;

// ---- Zipfian range --------------------------------------------------

TEST(ZipfianBoundary, LargestUniformDrawStaysBelowN)
{
    // The largest value Rng::uniform() can produce is 1 - 2^-53.
    // There, eta * u - eta + 1.0 rounds to exactly 1.0, the tail
    // expression reaches exactly `items`, and the pre-fix code
    // returned a rank one past the valid [0, n) range.
    double u_max = std::nextafter(1.0, 0.0);
    for (std::uint64_t n : {3ull, 10ull, 1000ull, 1ull << 20}) {
        workloads::Zipfian z(n, 0.99);
        EXPECT_LT(z.rank(u_max), n) << "n=" << n;
        // And the clamp keeps the tail in range across the whole
        // upper end of the uniform interval.
        for (double u = 0.999; u < 1.0; u += 1e-5)
            ASSERT_LT(z.rank(u), n) << "n=" << n << " u=" << u;
    }
}

TEST(ZipfianBoundary, EveryDrawStaysBelowN)
{
    for (std::uint64_t n : {3ull, 10ull, 1000ull, 1ull << 20}) {
        workloads::Zipfian z(n, 0.99);
        for (std::uint64_t seed : {1ull, 42ull, 0xfeedull}) {
            Rng rng(seed);
            for (int i = 0; i < 50000; ++i)
                ASSERT_LT(z.next(rng), n) << "n=" << n
                                          << " seed=" << seed;
        }
    }
}

TEST(ZipfianBoundary, HotRankZeroStillDominates)
{
    // The clamp must not distort the distribution: rank 0 stays the
    // most popular key by a wide margin at theta = 0.99.
    workloads::Zipfian z(1000, 0.99);
    Rng rng(7);
    std::uint64_t zero = 0;
    std::uint64_t total = 100000;
    for (std::uint64_t i = 0; i < total; ++i)
        if (z.next(rng) == 0)
            ++zero;
    EXPECT_GT(zero, total / 10);
}

// ---- logSweep termination -------------------------------------------

TEST(LogSweepDeathTest, ZeroLowerBoundIsRejected)
{
    setQuiet(true);
    // Pre-fix this looped forever (0 * factor == 0); now it must be
    // rejected up front with a clear message.
    EXPECT_DEATH(logSweep(0, 1024, 2), "must be >= 1");
}

TEST(LogSweep, LowerBoundOneStillSweeps)
{
    auto pts = logSweep(1, 16, 2);
    ASSERT_EQ(pts.size(), 5u);
    EXPECT_EQ(pts.front(), 1u);
    EXPECT_EQ(pts.back(), 16u);
    for (std::size_t i = 1; i < pts.size(); ++i)
        EXPECT_EQ(pts[i], pts[i - 1] * 2);
}

// ---- Config::parseSize ----------------------------------------------

TEST(ParseSizeDeathTest, NegativeAndNonFiniteValuesAreRejected)
{
    setQuiet(true);
    // Pre-fix these cast a negative / NaN double to uint64_t --
    // undefined behavior that in practice produced huge garbage
    // capacities instead of an error.
    EXPECT_DEATH(Config::parseSize("-1k"), "finite non-negative");
    EXPECT_DEATH(Config::parseSize("-0.5G"), "finite non-negative");
    EXPECT_DEATH(Config::parseSize("nan"), "finite non-negative");
    EXPECT_DEATH(Config::parseSize("inf"), "finite non-negative");
    EXPECT_DEATH(Config::parseSize("xyz"), "no leading number");
    EXPECT_DEATH(Config::parseSize("12q"), "unknown size suffix");
}

TEST(ParseSize, AcceptsByteSuffixAndKeepsExistingOnes)
{
    // "64b" / "64B" used to hit the unknown-suffix fatal even though
    // every other magnitude had a suffix spelling.
    EXPECT_EQ(Config::parseSize("64b"), 64u);
    EXPECT_EQ(Config::parseSize("64B"), 64u);
    EXPECT_EQ(Config::parseSize("64"), 64u);
    EXPECT_EQ(Config::parseSize("1k"), 1024u);
    EXPECT_EQ(Config::parseSize("2KiB"), 2048u);
    EXPECT_EQ(Config::parseSize("3M"), 3u << 20);
    EXPECT_EQ(Config::parseSize("1.5k"), 1536u);
    EXPECT_EQ(Config::parseSize("4G"), 4ull << 30);
    EXPECT_EQ(Config::parseSize("0"), 0u);
}

// ---- NvramConfig::validate --------------------------------------------

namespace
{

/** One [nvram] input no world can run, and the same edit in code. */
struct BadNvramInput
{
    const char *key;
    const char *value;
    void (*apply)(nvram::NvramConfig &);
};

const BadNvramInput badNvramInputs[] = {
    // SIGFPE: the DIMM stages divide by these.
    {"rmw_line_bytes", "0",
     [](nvram::NvramConfig &c) { c.rmwLineBytes = 0; }},
    {"media_partitions", "0",
     [](nvram::NvramConfig &c) { c.mediaPartitions = 0; }},
    // Hang: an empty queue never accepts a write.
    {"lsq_entries", "0", [](nvram::NvramConfig &c) { c.lsqEntries = 0; }},
    {"rmw_entries", "0", [](nvram::NvramConfig &c) { c.rmwEntries = 0; }},
    // Panic mid-run in the wear leveler.
    {"wear_threshold", "0",
     [](nvram::NvramConfig &c) { c.wearThreshold = 0; }},
    // Panic in the event queue: the arrival lands in the past.
    {"core_to_imc_ns", "-5",
     [](nvram::NvramConfig &c) { c.coreToImcNs = -5; }},
    // Silently misaligned lines.
    {"ait_line_bytes", "100",
     [](nvram::NvramConfig &c) { c.aitLineBytes = 100; }},
    {"media_chunk_bytes", "96",
     [](nvram::NvramConfig &c) { c.mediaChunkBytes = 96; }},
};

class NvramConfigDeathTest
    : public ::testing::TestWithParam<BadNvramInput>
{};

} // namespace

TEST_P(NvramConfigDeathTest, RejectedAtParseAndAtImcNamingTheKey)
{
    setQuiet(true);
    const BadNvramInput &in = GetParam();
    std::string must = std::string(in.key) + " must";
    Config raw = Config::fromString(std::string("[nvram]\n") + in.key +
                                    " = " + in.value + "\n");
    EXPECT_DEATH(nvram::NvramConfig::fromConfig(raw), must);
    nvram::NvramConfig cfg = nvram::NvramConfig::optaneDefault();
    in.apply(cfg);
    EXPECT_DEATH(
        {
            EventQueue eq;
            nvram::VansSystem sys(eq, cfg);
        },
        must);
}

INSTANTIATE_TEST_SUITE_P(
    BadInputs, NvramConfigDeathTest, ::testing::ValuesIn(badNvramInputs),
    [](const ::testing::TestParamInfo<BadNvramInput> &info) {
        return std::string(info.param.key);
    });

TEST(NvramConfig, EveryShippedConfigParses)
{
    unsigned parsed = 0;
    for (const auto &entry : std::filesystem::directory_iterator(
             std::string(VANS_SOURCE_DIR) + "/configs")) {
        if (entry.path().extension() != ".cfg")
            continue;
        SCOPED_TRACE(entry.path().string());
        Config raw = Config::fromFile(entry.path().string());
        nvram::NvramConfig::fromConfig(raw).validate();
        ++parsed;
    }
    EXPECT_GE(parsed, 4u);
}

// A misspelled key used to be ignored: with rmw_entriesz = 64, fig09
// ran on the default rmw_entries and still passed.
TEST(UnknownConfigKeyDeathTest, RejectedAtParseNamingTheKey)
{
    setQuiet(true);
    Config nv = Config::fromString("[nvram]\nrmw_entriesz = 64\n");
    EXPECT_DEATH(nvram::NvramConfig::fromConfig(nv),
                 "\\[nvram\\] unknown key 'rmw_entriesz'");
    Config tr = Config::fromString("[trace]\nenabled = true\n");
    EXPECT_DEATH(nvram::NvramConfig::fromConfig(tr),
                 "\\[trace\\] unknown key 'enabled'");
}

// ---- Trace file round trip ------------------------------------------

namespace
{

std::string
tmpPath(const char *name)
{
    return ::testing::TempDir() + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

TEST(TraceRoundTrip, EveryInstTypeSurvivesWriteReadWrite)
{
    using trace::InstType;
    using trace::TraceInst;

    std::vector<TraceInst> insts;
    insts.push_back({InstType::NonMem, 0, 17, false});
    insts.push_back({InstType::Load, 0x1000, 1, false});
    insts.push_back({InstType::Store, 0x2040, 1, true});
    insts.push_back({InstType::StoreNT, 0x3080, 1, false});
    insts.push_back({InstType::Clwb, 0x3080, 1, true});
    insts.push_back({InstType::Clflushopt, 0x50c0, 1, false});
    // Pre-fix, the writer emitted an address and "d" flag here that
    // the reader never consumes; stale in-memory fields must not
    // leak into the file.
    insts.push_back({InstType::Fence, 0xdeadbeef, 1, true});
    // Sfence is bare on disk exactly like Fence.
    insts.push_back({InstType::Sfence, 0xcafe, 1, true});
    insts.push_back({InstType::Mkpt, 0x4000, 1, false});

    auto p1 = tmpPath("roundtrip1.trace");
    auto p2 = tmpPath("roundtrip2.trace");
    trace::writeTraceFile(p1, insts);
    auto back = trace::readTraceFile(p1);

    ASSERT_EQ(back.size(), insts.size());
    for (std::size_t i = 0; i < insts.size(); ++i) {
        EXPECT_EQ(back[i].type, insts[i].type) << "inst " << i;
        if (insts[i].type == InstType::NonMem) {
            EXPECT_EQ(back[i].count, insts[i].count);
        } else if (insts[i].type != InstType::Fence &&
                   insts[i].type != InstType::Sfence) {
            EXPECT_EQ(back[i].addr, insts[i].addr) << "inst " << i;
            EXPECT_EQ(back[i].dependsOnPrev, insts[i].dependsOnPrev)
                << "inst " << i;
        } else {
            // Fences (both kinds) carry no payload on disk: the
            // parsed instruction comes back in its default state.
            EXPECT_EQ(back[i].addr, 0u);
            EXPECT_FALSE(back[i].dependsOnPrev);
        }
    }

    // Writing what was read reproduces the file byte-for-byte: the
    // format is now a fixed point of write -> read -> write.
    trace::writeTraceFile(p2, back);
    EXPECT_EQ(slurp(p2), slurp(p1));

    std::remove(p1.c_str());
    std::remove(p2.c_str());
}

TEST(TraceRoundTrip, FenceLineIsBare)
{
    auto p = tmpPath("fence.trace");
    std::vector<trace::TraceInst> insts;
    insts.push_back({trace::InstType::Fence, 0x1234, 1, true});
    trace::writeTraceFile(p, insts);
    EXPECT_EQ(slurp(p), "F\n");
    std::remove(p.c_str());
}

TEST(TraceRoundTrip, SfenceLineIsBare)
{
    // The persistence ops added with the ADR model: sfence shares
    // the Fence bare-line rule; clflushopt carries its address.
    auto p = tmpPath("sfence.trace");
    std::vector<trace::TraceInst> insts;
    insts.push_back({trace::InstType::Sfence, 0x1234, 1, true});
    insts.push_back({trace::InstType::Clflushopt, 0x40, 1, false});
    trace::writeTraceFile(p, insts);
    EXPECT_EQ(slurp(p), "P\nO 0x40\n");
    std::remove(p.c_str());
}
