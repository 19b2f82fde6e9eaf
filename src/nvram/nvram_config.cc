#include "nvram/nvram_config.hh"

#include <set>
#include <type_traits>

#include "common/logging.hh"

namespace vans::nvram
{

namespace
{

/** fatal(), naming @p key, unless @p v is a power of two >= @p min. */
void
requirePow2(const char *key, std::uint64_t v, std::uint64_t min)
{
    if (v < min || !isPowerOf2(v))
        fatal("[nvram] %s must be a power of two >= %llu (got %llu)", key,
              static_cast<unsigned long long>(min),
              static_cast<unsigned long long>(v));
}

/** fatal(), naming @p key, unless @p v is at least 1. */
void
requirePositive(const char *key, std::uint64_t v)
{
    if (v == 0)
        fatal("[nvram] %s must be at least 1 (got 0)", key);
}

} // namespace

void
NvramConfig::validate() const
{
    requirePositive("num_dimms", numDimms);
    requirePositive("dimm_capacity", dimmCapacity);
    if (interleaved) {
        // dimmOf routes with a divide + modulo; a zero or
        // non-power-of-two interleave granularity silently skews the
        // channel distribution every figure depends on.
        requirePow2("interleave_bytes", interleaveBytes, cacheLineSize);
        if (interleaveBytes > dimmCapacity)
            fatal("[nvram] interleave_bytes %llu exceeds "
                  "dimm_capacity %llu",
                  static_cast<unsigned long long>(interleaveBytes),
                  static_cast<unsigned long long>(dimmCapacity));
    }
    // The sfence partial-drain charge tests wcFill % wcBufferBytes:
    // a buffer smaller than a line (or not a power of two) would
    // charge full-line NT streams at random.
    requirePow2("wc_buffer_bytes", wcBufferBytes, cacheLineSize);
    // The DRAM cache indexes sets with a mask; a non-power-of-two
    // capacity (or one below a single line) would fold distinct lines
    // onto the same set unevenly.
    if (memoryMode())
        requirePow2("dcache_capacity", dcacheCapacity, cacheLineSize);
    // The DIMM stages divide and mask by these sizes: zero is a
    // SIGFPE, and any other non-power of two misaligns lines silently.
    requirePow2("rmw_line_bytes", rmwLineBytes, cacheLineSize);
    requirePow2("ait_line_bytes", aitLineBytes, cacheLineSize);
    requirePow2("media_chunk_bytes", mediaChunkBytes, cacheLineSize);
    requirePositive("media_partitions", mediaPartitions);
    // An empty LSQ or RMW buffer never accepts a write: the run hangs.
    requirePositive("lsq_entries", lsqEntries);
    requirePositive("rmw_entries", rmwEntries);
    requirePositive("wear_threshold", wearThreshold);
    // A negative hop would schedule the iMC arrival in the past.
    if (!(coreToImcNs >= 0))
        fatal("[nvram] core_to_imc_ns must be >= 0 (got %g)", coreToImcNs);
}

NvramConfig
NvramConfig::optaneDefault()
{
    return NvramConfig{};
}

NvramConfig
NvramConfig::fromConfig(const Config &cfg)
{
    NvramConfig c;
    // Every key is read through get(), which notes it: a key in these
    // sections that nothing read is a misspelling, not a default.
    std::set<std::string> read;
    auto get = [&cfg, &read](const char *sec, const char *key, auto dflt) {
        using T = decltype(dflt);
        read.insert(std::string(sec) + "." + key);
        if constexpr (std::is_same_v<T, bool>)
            return cfg.getBool(sec, key, dflt);
        else if constexpr (std::is_floating_point_v<T>)
            return cfg.getDouble(sec, key, dflt);
        else if constexpr (std::is_integral_v<T>)
            return static_cast<T>(cfg.getU64(sec, key, dflt));
        else
            return cfg.get(sec, key, dflt);
    };
    const char *s = "nvram";
    std::string mode = get(s, "mode", std::string("app_direct"));
    if (mode == "memory") {
        c.mode = SystemMode::Memory;
    } else if (mode != "app_direct" && mode != "appdirect") {
        fatal("[nvram] mode must be app_direct or memory (got %s)",
              mode.c_str());
    }
    c.dcacheCapacity = get(s, "dcache_capacity", c.dcacheCapacity);
    c.numDimms = get(s, "num_dimms", c.numDimms);
    c.interleaved = get(s, "interleaved", c.interleaved);
    c.interleaveBytes = get(s, "interleave_bytes", c.interleaveBytes);
    c.dimmCapacity = get(s, "dimm_capacity", c.dimmCapacity);
    c.wpqEntries = get(s, "wpq_entries", c.wpqEntries);
    c.rpqEntries = get(s, "rpq_entries", c.rpqEntries);
    c.coreToImcNs = get(s, "core_to_imc_ns", c.coreToImcNs);
    c.busCmdNs = get(s, "bus_cmd_ns", c.busCmdNs);
    c.busDataPer64bNs = get(s, "bus_data_per_64b_ns", c.busDataPer64bNs);
    c.busTurnaroundNs = get(s, "bus_turnaround_ns", c.busTurnaroundNs);
    c.wpqGrantNs = get(s, "wpq_grant_ns", c.wpqGrantNs);
    c.lsqEntries = get(s, "lsq_entries", c.lsqEntries);
    c.lsqProbeNs = get(s, "lsq_probe_ns", c.lsqProbeNs);
    c.lsqEpochNs = get(s, "lsq_epoch_ns", c.lsqEpochNs);
    c.rmwEntries = get(s, "rmw_entries", c.rmwEntries);
    c.rmwLineBytes = get(s, "rmw_line_bytes", c.rmwLineBytes);
    c.rmwAccessNs = get(s, "rmw_access_ns", c.rmwAccessNs);
    c.aitBufEntries = get(s, "ait_buf_entries", c.aitBufEntries);
    c.aitLineBytes = get(s, "ait_line_bytes", c.aitLineBytes);
    c.aitTagNs = get(s, "ait_tag_ns", c.aitTagNs);
    c.mediaChunkBytes = get(s, "media_chunk_bytes", c.mediaChunkBytes);
    c.mediaPartitions = get(s, "media_partitions", c.mediaPartitions);
    c.mediaReadNs = get(s, "media_read_ns", c.mediaReadNs);
    c.mediaWriteNs = get(s, "media_write_ns", c.mediaWriteNs);
    c.wearBlockBytes = get(s, "wear_block_bytes", c.wearBlockBytes);
    c.wearThreshold = get(s, "wear_threshold", c.wearThreshold);
    c.migrationUs = get(s, "migration_us", c.migrationUs);
    c.dimmCtrlNs = get(s, "dimm_ctrl_ns", c.dimmCtrlNs);
    c.clwbExtraNs = get(s, "clwb_extra_ns", c.clwbExtraNs);
    c.wcBufferBytes = get(s, "wc_buffer_bytes", c.wcBufferBytes);
    c.wcPartialDrainNs =
        get(s, "wc_partial_drain_ns", c.wcPartialDrainNs);
    c.verify = get(s, "verify", c.verify);
    c.trace = get("trace", "enable", c.trace);
    for (const char *sec : {"nvram", "trace"}) {
        for (const std::string &key : cfg.keys(sec)) {
            if (!read.count(std::string(sec) + "." + key))
                fatal("[%s] unknown key '%s'", sec, key.c_str());
        }
    }
    // Reject malformed topologies at parse time, before any world is
    // built from this configuration.
    c.validate();
    return c;
}

} // namespace vans::nvram
