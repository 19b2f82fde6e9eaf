/**
 * @file
 * Shared fixtures and helpers for the test suite.
 */

#ifndef VANS_TESTS_TEST_UTIL_HH
#define VANS_TESTS_TEST_UTIL_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/event_queue.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/snapshot.hh"
#include "lens/driver.hh"
#include "lens/microbench.hh"
#include "nvram/vans_system.hh"

namespace vans::test
{

/** A VANS instance + LENS driver with a given config. */
struct VansFixture
{
    explicit VansFixture(
        nvram::NvramConfig cfg = nvram::NvramConfig::optaneDefault())
        : sys(eq, cfg), drv(sys)
    {
        setQuiet(true);
    }

    EventQueue eq;
    nvram::VansSystem sys;
    lens::Driver drv;
};

/** Reduced-cost config for tests: smaller buffers, faster sweeps. */
inline nvram::NvramConfig
smallConfig()
{
    nvram::NvramConfig cfg = nvram::NvramConfig::optaneDefault();
    cfg.rmwEntries = 16;                  // 4KB RMW buffer.
    cfg.aitBufEntries = 64;               // 256KB AIT buffer.
    cfg.dimmCapacity = 64ull << 20;
    cfg.wearThreshold = 500;
    cfg.migrationUs = 20;
    return cfg;
}

/**
 * A world whose snapshot stream the round-trip test and the golden
 * stream pins cover. Together the worlds put every kind of state a
 * stream carries into it: a second channel, a DRAM cache, full RMW
 * and AIT buffers with wear, and ADR versions.
 */
struct SnapshotWorld
{
    const char *name;
    nvram::NvramConfig cfg;
    bool persist = false; ///< Persist tracking on before the warm-up.
};

inline std::vector<SnapshotWorld>
snapshotWorlds()
{
    nvram::NvramConfig six = smallConfig();
    six.numDimms = 6;
    six.interleaved = true;
    nvram::NvramConfig memory = smallConfig();
    memory.mode = nvram::SystemMode::Memory;
    memory.dcacheCapacity = 1 << 20;
    nvram::NvramConfig hazards = nvram::NvramConfig::optaneDefault();
    hazards.rmwEntries = 4;
    hazards.aitBufEntries = 16;
    hazards.wearThreshold = 96;
    hazards.migrationUs = 5;
    return {{"small", smallConfig()},
            {"six-dimm", six},
            {"memory-mode", memory},
            {"hazards", hazards},
            {"persist", smallConfig(), true}};
}

/**
 * The snapshot tests' warm-up, ending quiescent: 400 mixed loads and
 * NT stores over 8 MB, then 200 overwrites of one 256 B line.
 */
inline void
warmForSnapshot(lens::Driver &drv)
{
    Rng rng(11);
    for (int n = 0; n < 400; ++n) {
        Addr a = rng.below(8u << 20) & ~static_cast<Addr>(63);
        if (rng.below(2) == 0)
            drv.write(a);
        else
            drv.read(a);
    }
    lens::overwrite(drv, 12 << 20, 256, 200);
    drv.fence();
    drv.drain();
}

/** The snapshot stream of the quiescent @p sys alone. */
inline std::vector<std::uint8_t>
systemStream(MemorySystem &sys)
{
    snapshot::StateSink sink;
    snapshot::Archive ar(sink);
    sys.serialize(ar);
    return sink.take();
}

} // namespace vans::test

#endif // VANS_TESTS_TEST_UTIL_HH
