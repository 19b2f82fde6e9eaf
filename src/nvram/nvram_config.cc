#include "nvram/nvram_config.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>

#include "common/logging.hh"

namespace vans::nvram
{

namespace
{

/** A row for member @p M; get and set convert through double. */
template <auto M>
constexpr NvramKey
row(const char *name, KeyRule rule, double min, double max)
{
    using T = std::remove_reference_t<
        decltype(std::declval<NvramConfig &>().*M)>;
    return {name, rule, min, max,
            [](const NvramConfig &c) { return static_cast<double>(c.*M); },
            [](NvramConfig &c, double v) { c.*M = static_cast<T>(v); }};
}

/** Counts start at 1: zero queue entries, DIMMs, partitions or wear
 *  threshold hang the run or panic mid-run. */
template <auto M>
constexpr NvramKey
count(const char *name, double max)
{
    return row<M>(name, KeyRule::Count, 1, max);
}

/** The DIMM stages divide and mask by sizes: at least one line. */
template <auto M>
constexpr NvramKey
size(const char *name, double max)
{
    return row<M>(name, KeyRule::Size, cacheLineSize, max);
}

/** A negative duration schedules in the past; at most 1 ms (1 s for
 *  migration_us). */
template <auto M>
constexpr NvramKey
duration(const char *name)
{
    return row<M>(name, KeyRule::Duration, 0, 1e6);
}

constexpr double kib = 1024;
constexpr double mib = kib * kib;
constexpr double gib = kib * mib;

/**
 * The schema. The maxima bound what one world allocates: 6 DIMMs
 * (the figure benches' largest socket), a 64K-entry AIT buffer, a
 * 1 GB DRAM cache (16 M sets).
 */
constexpr NvramKey keys[] = {
    row<&NvramConfig::mode>("mode", KeyRule::Mode, 0, 1),
    count<&NvramConfig::numDimms>("num_dimms", 6),
    row<&NvramConfig::interleaved>("interleaved", KeyRule::Flag, 0, 1),
    size<&NvramConfig::interleaveBytes>("interleave_bytes", gib),
    size<&NvramConfig::dimmCapacity>("dimm_capacity", kib * gib),
    count<&NvramConfig::wpqEntries>("wpq_entries", 1024),
    count<&NvramConfig::rpqEntries>("rpq_entries", 1024),
    duration<&NvramConfig::coreToImcNs>("core_to_imc_ns"),
    duration<&NvramConfig::busCmdNs>("bus_cmd_ns"),
    duration<&NvramConfig::busDataPer64bNs>("bus_data_per_64b_ns"),
    duration<&NvramConfig::busTurnaroundNs>("bus_turnaround_ns"),
    duration<&NvramConfig::wpqGrantNs>("wpq_grant_ns"),
    count<&NvramConfig::lsqEntries>("lsq_entries", 4096),
    duration<&NvramConfig::lsqProbeNs>("lsq_probe_ns"),
    duration<&NvramConfig::lsqEpochNs>("lsq_epoch_ns"),
    count<&NvramConfig::rmwEntries>("rmw_entries", 65536),
    size<&NvramConfig::rmwLineBytes>("rmw_line_bytes", 4 * kib),
    duration<&NvramConfig::rmwAccessNs>("rmw_access_ns"),
    count<&NvramConfig::aitBufEntries>("ait_buf_entries", 65536),
    size<&NvramConfig::aitLineBytes>("ait_line_bytes", 64 * kib),
    duration<&NvramConfig::aitTagNs>("ait_tag_ns"),
    size<&NvramConfig::mediaChunkBytes>("media_chunk_bytes", 4 * kib),
    count<&NvramConfig::mediaPartitions>("media_partitions", 64),
    duration<&NvramConfig::mediaReadNs>("media_read_ns"),
    duration<&NvramConfig::mediaWriteNs>("media_write_ns"),
    size<&NvramConfig::dcacheCapacity>("dcache_capacity", gib),
    size<&NvramConfig::wearBlockBytes>("wear_block_bytes", gib),
    count<&NvramConfig::wearThreshold>("wear_threshold", 1e9),
    duration<&NvramConfig::migrationUs>("migration_us"),
    duration<&NvramConfig::dimmCtrlNs>("dimm_ctrl_ns"),
    duration<&NvramConfig::clwbExtraNs>("clwb_extra_ns"),
    size<&NvramConfig::wcBufferBytes>("wc_buffer_bytes", 4 * kib),
    duration<&NvramConfig::wcPartialDrainNs>("wc_partial_drain_ns"),
};

constexpr double notANumber = std::numeric_limits<double>::quiet_NaN();

std::string
trim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::string
lower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

/**
 * @p token as one number times its binary size suffix, into @p out.
 * Returns nullptr, or why the token is not such a number.
 */
const char *
scanSize(const std::string &token, double &out)
{
    char *end = nullptr;
    double num = std::strtod(token.c_str(), &end);
    if (end == token.c_str())
        return "has no leading number";
    std::string suffix = lower(trim(end));
    double mult = 1;
    if (suffix == "k" || suffix == "kb" || suffix == "kib")
        mult = kib;
    else if (suffix == "m" || suffix == "mb" || suffix == "mib")
        mult = mib;
    else if (suffix == "g" || suffix == "gb" || suffix == "gib")
        mult = gib;
    else if (!suffix.empty() && suffix != "b")
        return "has an unknown size suffix";
    out = num * mult;
    return nullptr;
}

/** The value @p token spells under @p k's rule, or NaN. */
double
tokenValue(const NvramKey &k, const std::string &token)
{
    switch (k.rule) {
      case KeyRule::Count:
      case KeyRule::Size: {
        double v = notANumber;
        return scanSize(token, v) ? notANumber : v;
      }
      case KeyRule::Duration: {
        char *end = nullptr;
        double v = std::strtod(token.c_str(), &end);
        return end != token.c_str() && *end == '\0' ? v : notANumber;
      }
      case KeyRule::Flag: {
        std::string v = lower(token);
        if (v == "true" || v == "yes" || v == "1" || v == "on")
            return 1;
        if (v == "false" || v == "no" || v == "0" || v == "off")
            return 0;
        return notANumber;
      }
      case KeyRule::Mode:
        if (token == "app_direct")
            return static_cast<double>(SystemMode::AppDirect);
        if (token == "memory")
            return static_cast<double>(SystemMode::Memory);
        return notANumber;
    }
    return notANumber;
}

std::string
show(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.15g", v);
    return buf;
}

/** True when @p v satisfies @p k's rule (never for NaN). */
bool
holds(const NvramKey &k, double v)
{
    if (!(v >= k.min && v <= k.max))
        return false;
    if (k.rule == KeyRule::Duration)
        return true;
    if (v != std::floor(v))
        return false;
    return k.rule != KeyRule::Size ||
           isPowerOf2(static_cast<std::uint64_t>(v));
}

/** fatal(): @p k's value @p got breaks its rule. */
[[noreturn]] void
reject(const NvramKey &k, const std::string &got)
{
    // Appended, not chained with operator+: g++ 12 at -O3 reports a
    // false -Werror=restrict inside the inlined concatenation.
    std::string range = "[";
    range.append(show(k.min)).append(", ").append(show(k.max)).append("]");
    std::string rule;
    switch (k.rule) {
      case KeyRule::Count:
        rule = "a whole number in " + range;
        break;
      case KeyRule::Size:
        rule = "a power of two in " + range;
        break;
      case KeyRule::Duration:
        rule = "a number in " + range;
        break;
      case KeyRule::Flag:
        rule = "true or false";
        break;
      case KeyRule::Mode:
        rule = "app_direct or memory";
        break;
    }
    fatal("[nvram] %s must be %s (got %s)", k.name, rule.c_str(),
          got.c_str());
}

} // namespace

std::span<const NvramKey>
nvramKeys()
{
    return keys;
}

void
NvramConfig::validate() const
{
    for (const NvramKey &k : keys) {
        double v = k.get(*this);
        if (!holds(k, v))
            reject(k, show(v));
    }
    // A stripe wider than a DIMM overflows the DIMM it maps to.
    if (interleaved && interleaveBytes > dimmCapacity)
        fatal("[nvram] interleave_bytes %llu exceeds "
              "dimm_capacity %llu",
              static_cast<unsigned long long>(interleaveBytes),
              static_cast<unsigned long long>(dimmCapacity));
}

NvramConfig
NvramConfig::optaneDefault()
{
    return NvramConfig{};
}

NvramConfig
NvramConfig::fromString(const std::string &text)
{
    NvramConfig c;
    std::istringstream in(text);
    std::string line;
    bool inSection = false;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        line = trim(line.substr(0, line.find_first_of("#;")));
        if (line.empty())
            continue;
        if (line.front() == '[') {
            if (line.back() != ']')
                fatal("config line %d: malformed section '%s'", lineno,
                      line.c_str());
            std::string name = trim(line.substr(1, line.size() - 2));
            if (name != "nvram")
                fatal("config line %d: unknown section [%s] (only "
                      "[nvram] is read)",
                      lineno, name.c_str());
            inSection = true;
            continue;
        }
        auto eq = line.find('=');
        if (eq == std::string::npos)
            fatal("config line %d: expected key = value, got '%s'",
                  lineno, line.c_str());
        std::string key = trim(line.substr(0, eq));
        std::string value = trim(line.substr(eq + 1));
        if (!inSection)
            fatal("config line %d: key '%s' above the [nvram] header",
                  lineno, key.c_str());
        auto k = std::find_if(std::begin(keys), std::end(keys),
                              [&key](const NvramKey &r) {
                                  return key == r.name;
                              });
        if (k == std::end(keys))
            fatal("[nvram] unknown key '%s'", key.c_str());
        double v = tokenValue(*k, value);
        if (!holds(*k, v))
            reject(*k, "'" + value + "'");
        k->set(c, v);
    }
    // Cross-field rules, before any world is built from this text.
    c.validate();
    return c;
}

NvramConfig
NvramConfig::fromFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open config file '%s'", path.c_str());
    std::ostringstream ss;
    ss << in.rdbuf();
    return fromString(ss.str());
}

std::uint64_t
parseSize(const std::string &value)
{
    std::string v = trim(value);
    double num = 0;
    if (const char *why = scanSize(v, num))
        fatal("size value '%s' %s", v.c_str(), why);
    // Casting a negative, non-finite or too-large double to uint64_t
    // is undefined behavior; reject instead of silently wrapping.
    if (!(num >= 0 && num < 0x1p64) || num != std::floor(num))
        fatal("size value '%s' must be a finite non-negative whole "
              "number below 2^64",
              v.c_str());
    return static_cast<std::uint64_t>(num);
}

} // namespace vans::nvram
