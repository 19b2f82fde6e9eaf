#include "nvram/nvram_config.hh"

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
    const std::string s = "nvram";
    std::string mode = cfg.get(s, "mode", "app_direct");
    if (mode == "memory") {
        c.mode = SystemMode::Memory;
    } else if (mode != "app_direct" && mode != "appdirect") {
        fatal("[nvram] mode must be app_direct or memory (got %s)",
              mode.c_str());
    }
    c.dcacheCapacity =
        cfg.getU64(s, "dcache_capacity", c.dcacheCapacity);
    c.numDimms = static_cast<unsigned>(
        cfg.getU64(s, "num_dimms", c.numDimms));
    c.interleaved = cfg.getBool(s, "interleaved", c.interleaved);
    c.interleaveBytes =
        cfg.getU64(s, "interleave_bytes", c.interleaveBytes);
    c.dimmCapacity = cfg.getU64(s, "dimm_capacity", c.dimmCapacity);
    c.wpqEntries = static_cast<unsigned>(
        cfg.getU64(s, "wpq_entries", c.wpqEntries));
    c.rpqEntries = static_cast<unsigned>(
        cfg.getU64(s, "rpq_entries", c.rpqEntries));
    c.coreToImcNs = cfg.getDouble(s, "core_to_imc_ns", c.coreToImcNs);
    c.busCmdNs = cfg.getDouble(s, "bus_cmd_ns", c.busCmdNs);
    c.busDataPer64bNs =
        cfg.getDouble(s, "bus_data_per_64b_ns", c.busDataPer64bNs);
    c.busTurnaroundNs =
        cfg.getDouble(s, "bus_turnaround_ns", c.busTurnaroundNs);
    c.wpqGrantNs = cfg.getDouble(s, "wpq_grant_ns", c.wpqGrantNs);
    c.lsqEntries = static_cast<unsigned>(
        cfg.getU64(s, "lsq_entries", c.lsqEntries));
    c.lsqProbeNs = cfg.getDouble(s, "lsq_probe_ns", c.lsqProbeNs);
    c.lsqEpochNs = cfg.getDouble(s, "lsq_epoch_ns", c.lsqEpochNs);
    c.rmwEntries = static_cast<unsigned>(
        cfg.getU64(s, "rmw_entries", c.rmwEntries));
    c.rmwLineBytes = static_cast<std::uint32_t>(
        cfg.getU64(s, "rmw_line_bytes", c.rmwLineBytes));
    c.rmwAccessNs = cfg.getDouble(s, "rmw_access_ns", c.rmwAccessNs);
    c.aitBufEntries = static_cast<unsigned>(
        cfg.getU64(s, "ait_buf_entries", c.aitBufEntries));
    c.aitLineBytes = static_cast<std::uint32_t>(
        cfg.getU64(s, "ait_line_bytes", c.aitLineBytes));
    c.aitTagNs = cfg.getDouble(s, "ait_tag_ns", c.aitTagNs);
    c.mediaChunkBytes = static_cast<std::uint32_t>(
        cfg.getU64(s, "media_chunk_bytes", c.mediaChunkBytes));
    c.mediaPartitions = static_cast<unsigned>(
        cfg.getU64(s, "media_partitions", c.mediaPartitions));
    c.mediaReadNs = cfg.getDouble(s, "media_read_ns", c.mediaReadNs);
    c.mediaWriteNs = cfg.getDouble(s, "media_write_ns", c.mediaWriteNs);
    c.wearBlockBytes =
        cfg.getU64(s, "wear_block_bytes", c.wearBlockBytes);
    c.wearThreshold = cfg.getU64(s, "wear_threshold", c.wearThreshold);
    c.migrationUs = cfg.getDouble(s, "migration_us", c.migrationUs);
    c.dimmCtrlNs = cfg.getDouble(s, "dimm_ctrl_ns", c.dimmCtrlNs);
    c.clwbExtraNs = cfg.getDouble(s, "clwb_extra_ns", c.clwbExtraNs);
    c.wcBufferBytes = static_cast<std::uint32_t>(
        cfg.getU64(s, "wc_buffer_bytes", c.wcBufferBytes));
    c.wcPartialDrainNs =
        cfg.getDouble(s, "wc_partial_drain_ns", c.wcPartialDrainNs);
    c.verify = cfg.getBool(s, "verify", c.verify);
    c.trace = cfg.getBool("trace", "enable", c.trace);
    // Reject malformed topologies at parse time, before any world is
    // built from this configuration.
    c.validate();
    return c;
}

} // namespace vans::nvram
