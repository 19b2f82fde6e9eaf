/**
 * @file
 * Regression tests for generator/parser bugs found in the
 * observability sweep. Each test fails on the pre-fix code:
 *  - Zipfian::next could return rank == n when the uniform draw
 *    landed close enough to 1.0 (out-of-range hot-key index);
 *  - logSweep(0, hi, f) spun forever because 0 * factor stays 0;
 *  - parseSize cast negative / non-finite doubles straight
 *    to uint64_t (undefined behavior) and rejected a plain "b"
 *    byte suffix;
 *  - writeTraceFile emitted an address and dependency flag for
 *    Fence lines that readTraceFile never parses, so a trace did
 *    not survive a write -> read -> write round trip;
 *  - NvramConfig::validate accepted sizes, queue depths and a hop
 *    latency no world can run with: SIGFPEs, hangs and mid-run
 *    panics instead of a parse-time error naming the key;
 *  - NvramConfig parsing ignored a key it did not read, another
 *    section and a key above the first header, so a misspelled key
 *    ran on the default; it truncated "2.7" to 2, wrapped
 *    4294967297 to 1 and read "abc" as 0.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/curve.hh"
#include "common/event_queue.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "lens/driver.hh"
#include "nvram/vans_system.hh"
#include "tests/test_util.hh"
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

// ---- parseSize ------------------------------------------------------

TEST(ParseSizeDeathTest, NegativeAndNonFiniteValuesAreRejected)
{
    setQuiet(true);
    // Pre-fix these cast a negative / NaN double to uint64_t --
    // undefined behavior that in practice produced huge garbage
    // capacities instead of an error.
    EXPECT_DEATH(nvram::parseSize("-1k"), "finite non-negative");
    EXPECT_DEATH(nvram::parseSize("-0.5G"), "finite non-negative");
    EXPECT_DEATH(nvram::parseSize("nan"), "finite non-negative");
    EXPECT_DEATH(nvram::parseSize("inf"), "finite non-negative");
    EXPECT_DEATH(nvram::parseSize("1e30"), "finite non-negative");
    EXPECT_DEATH(nvram::parseSize("xyz"), "no leading number");
    EXPECT_DEATH(nvram::parseSize("12q"), "unknown size suffix");
}

TEST(ParseSize, AcceptsByteSuffixAndKeepsExistingOnes)
{
    // "64b" / "64B" used to hit the unknown-suffix fatal even though
    // every other magnitude had a suffix spelling.
    EXPECT_EQ(nvram::parseSize("64b"), 64u);
    EXPECT_EQ(nvram::parseSize("64B"), 64u);
    EXPECT_EQ(nvram::parseSize("64"), 64u);
    EXPECT_EQ(nvram::parseSize("1k"), 1024u);
    EXPECT_EQ(nvram::parseSize("2KiB"), 2048u);
    EXPECT_EQ(nvram::parseSize("3M"), 3u << 20);
    EXPECT_EQ(nvram::parseSize("1.5k"), 1536u);
    EXPECT_EQ(nvram::parseSize("4G"), 4ull << 30);
    EXPECT_EQ(nvram::parseSize("0"), 0u);
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
    {"wear_block_bytes", "0",
     [](nvram::NvramConfig &c) { c.wearBlockBytes = 0; }},
    // Hang: an empty queue never accepts a write.
    {"lsq_entries", "0", [](nvram::NvramConfig &c) { c.lsqEntries = 0; }},
    {"rmw_entries", "0", [](nvram::NvramConfig &c) { c.rmwEntries = 0; }},
    {"wpq_entries", "0", [](nvram::NvramConfig &c) { c.wpqEntries = 0; }},
    // Hang: a NaN write latency never completes.
    {"media_write_ns", "nan",
     [](nvram::NvramConfig &c) { c.mediaWriteNs = std::nan(""); }},
    // Panic mid-run: the event queue drains with a read still queued.
    {"rpq_entries", "0", [](nvram::NvramConfig &c) { c.rpqEntries = 0; }},
    // Panic mid-run in the AIT buffer's LRU.
    {"ait_buf_entries", "0",
     [](nvram::NvramConfig &c) { c.aitBufEntries = 0; }},
    // Panic mid-run in the wear leveler.
    {"wear_threshold", "0",
     [](nvram::NvramConfig &c) { c.wearThreshold = 0; }},
    // Panic in the event queue: the arrival lands in the past.
    {"core_to_imc_ns", "-5",
     [](nvram::NvramConfig &c) { c.coreToImcNs = -5; }},
    {"media_read_ns", "-5",
     [](nvram::NvramConfig &c) { c.mediaReadNs = -5; }},
    // A negative double cast to an unsigned Tick.
    {"lsq_epoch_ns", "-1",
     [](nvram::NvramConfig &c) { c.lsqEpochNs = -1; }},
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
    EXPECT_DEATH(nvram::NvramConfig::fromString(
                     std::string("[nvram]\n") + in.key + " = " +
                     in.value + "\n"),
                 must);
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

// Pre-fix each of these ran on a value other than the one written:
// truncated, wrapped, read as 0, cast out of range, or ignored. The
// message quotes the value as written.
TEST(NvramParseDeathTest, ValuesReadWrongAreRejectedNamingTheKey)
{
    setQuiet(true);
    struct Case
    {
        const char *text;
        const char *message;
    };
    const Case cases[] = {
        {"[nvram]\nnum_dimms = 2.7\n", "num_dimms must .*'2.7'"},
        {"[nvram]\nnum_dimms = 4294967297\n",
         "num_dimms must .*'4294967297'"},
        {"[nvram]\nrmw_entries = 4294967296\n",
         "rmw_entries must .*'4294967296'"},
        {"[nvram]\ncore_to_imc_ns = abc\n", "core_to_imc_ns must .*'abc'"},
        {"[nvram]\ndimm_capacity = 1e30\n", "dimm_capacity must .*'1e30'"},
        {"[nvarm]\nrmw_entries = 64\n", "unknown section \\[nvarm\\]"},
        {"rmw_entries = 64\n[nvram]\n",
         "key 'rmw_entries' above the \\[nvram\\] header"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.text);
        EXPECT_DEATH(nvram::NvramConfig::fromString(c.text), c.message);
    }
}

TEST(NvramConfig, EveryShippedConfigParses)
{
    unsigned parsed = 0;
    for (const auto &entry : std::filesystem::directory_iterator(
             std::string(VANS_SOURCE_DIR) + "/configs")) {
        if (entry.path().extension() != ".cfg")
            continue;
        SCOPED_TRACE(entry.path().string());
        nvram::NvramConfig::fromFile(entry.path().string()).validate();
        ++parsed;
    }
    EXPECT_GE(parsed, 4u);
}

// A misspelled key used to be ignored: with rmw_entriesz = 64, fig09
// ran on the default rmw_entries and still passed.
TEST(UnknownConfigKeyDeathTest, RejectedAtParseNamingTheKey)
{
    setQuiet(true);
    EXPECT_DEATH(
        nvram::NvramConfig::fromString("[nvram]\nrmw_entriesz = 64\n"),
        "\\[nvram\\] unknown key 'rmw_entriesz'");
    EXPECT_DEATH(
        nvram::NvramConfig::fromString("[trace]\nenabled = true\n"),
        "unknown section \\[trace\\]");
}

// ---- Config fuzz from the schema --------------------------------------

namespace
{

/**
 * Parse @p probe as the value of @p key alone, then run it: a
 * smallConfig() world with that one key changed takes 300 mixed
 * reads, NT stores, clwbs and fences inside capacity() and drains to
 * quiescence. Exits 0 after printing "probe ran".
 */
[[noreturn]] void
runProbe(const nvram::NvramKey &key, const std::string &probe)
{
    nvram::NvramConfig parsed = nvram::NvramConfig::fromString(
        std::string("[nvram]\n") + key.name + " = " + probe + "\n");
    nvram::NvramConfig cfg = test::smallConfig();
    key.set(cfg, key.get(parsed));
    EventQueue eq;
    nvram::VansSystem sys(eq, cfg);
    lens::Driver drv(sys);
    Rng rng(7);
    std::vector<Addr> batch;
    for (int round = 0; round < 6; ++round) {
        // Half the lines in one 16 KB window, so writes merge in the
        // LSQ and hit in the RMW and AIT buffers.
        batch.clear();
        for (int i = 0; i < 48; ++i) {
            Addr span = i % 2 ? sys.capacity() : Addr{16384};
            batch.push_back(rng.below(span) & ~Addr{63});
        }
        if (round % 2)
            drv.streamWrites(batch, 16);
        else
            drv.streamReads(batch, 16);
        drv.clwb(batch.front());
        drv.sfence();
        drv.fence();
    }
    drv.drain();
    std::fprintf(stderr, "probe ran\n");
    std::exit(0);
}

bool
exitedZeroOrOne(int status)
{
    return WIFEXITED(status) && WEXITSTATUS(status) <= 1;
}

} // namespace

// Every row of the schema, fuzzed with values around its bounds and
// spellings that are not numbers: each must be rejected at parse by
// a message naming the key, or build a world that runs and drains.
TEST(NvramConfigFuzzDeathTest, EveryProbeFailsNamingTheKeyOrRuns)
{
    setQuiet(true);
    for (const nvram::NvramKey &key : nvram::nvramKeys()) {
        char above[32];
        std::snprintf(above, sizeof(above), "%.17g", key.max + 1);
        for (const char *probe :
             {"0", "-1", "1", "3", "192", static_cast<const char *>(above),
              "4294967296", "18446744073709551616", "abc", "nan",
              "1e30"}) {
            SCOPED_TRACE(std::string(key.name) + " = " + probe);
            EXPECT_EXIT(runProbe(key, probe), exitedZeroOrOne,
                        std::string(key.name) + " must|probe ran");
        }
    }
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
