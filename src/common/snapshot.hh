/**
 * @file
 * Warm-world snapshot/fork framework.
 *
 * A sweep re-pays a multi-thousand-line warm-up per point unless the
 * warm state can be captured once and cloned. This header provides
 * the pieces: a typed byte-stream (StateSink / StateSource) every
 * stateful component serializes itself through, and a WorldSnapshot
 * that captures a quiescent (EventQueue, MemorySystem) pair and
 * restores it into a freshly built world in O(state) with zero
 * re-simulation.
 *
 * The stream is *typed*: every value carries a one-byte type code and
 * every component section opens with a named tag, so a component
 * added, removed, or reordered between capture and restore fails a
 * VANS_REQUIRE immediately instead of silently mis-restoring state.
 *
 * Quiescence contract: a world may only be captured when no request
 * is in flight anywhere in the model (see VansSystem::quiescent()).
 * The only events pending at that point are idempotent, guarded
 * timers (the DRAM controllers' refresh wakeups), which the owning
 * component re-arms during restoreFrom(). Restore therefore schedules
 * its re-armed timers before the caller issues any new work, so those
 * timers keep lower sequence numbers than every measurement event --
 * exactly the order the continuously-run reference world executes,
 * which is what makes a forked run tick-for-tick identical to it.
 */

#ifndef VANS_COMMON_SNAPSHOT_HH
#define VANS_COMMON_SNAPSHOT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace vans
{
class EventQueue;
class MemorySystem;
} // namespace vans

namespace vans::snapshot
{

/** Serialization sink: components append typed values. */
class StateSink
{
  public:
    /** Open a named section (verified on restore). */
    void tag(const char *name);

    void u64(std::uint64_t v);
    void f64(double v);
    void boolean(bool v);
    void str(const std::string &s);

    const std::vector<std::uint8_t> &data() const { return bytes; }
    std::vector<std::uint8_t> take() { return std::move(bytes); }

  private:
    void raw(const void *p, std::size_t n);

    std::vector<std::uint8_t> bytes;
};

/** Deserialization source: typed reads mirror StateSink writes. */
class StateSource
{
  public:
    explicit StateSource(const std::vector<std::uint8_t> &buf)
        : bytes(buf)
    {}

    /** Consume a section tag; panics when it does not match. */
    void tag(const char *name);

    std::uint64_t u64();
    double f64();
    bool boolean();
    std::string str();

    /** True once every byte has been consumed. */
    bool exhausted() const { return off == bytes.size(); }

  private:
    std::uint8_t code(std::uint8_t expect);
    void raw(void *p, std::size_t n);

    const std::vector<std::uint8_t> &bytes;
    std::size_t off = 0;
};

/**
 * An opaque, self-describing image of one quiescent simulated world
 * (event-kernel counters + the full memory-system state).
 */
class WorldSnapshot
{
  public:
    WorldSnapshot() = default;

    /**
     * Capture @p sys (clocked by @p eq). The system must support
     * snapshotting and be quiescent; both are VANS_REQUIREd.
     */
    static WorldSnapshot capture(EventQueue &eq,
                                 const MemorySystem &sys);

    /**
     * Restore into a freshly built world: @p eq must be empty and at
     * tick 0, @p sys built by the same factory/config as the captured
     * system. Re-arms the components' guarded timer events.
     */
    void restoreInto(EventQueue &eq, MemorySystem &sys) const;

    bool valid() const { return !image.empty(); }
    std::size_t sizeBytes() const { return image.size(); }

  private:
    std::vector<std::uint8_t> image;
};

/**
 * Same as sys.drain(maxEvents); @p eq is unused. New code calls
 * MemorySystem::drain directly. This form remains because the
 * benchmark under perfbench/ calls it.
 */
void awaitQuiescence(EventQueue &eq, MemorySystem &sys,
                     std::uint64_t maxEvents = 50000000);

} // namespace vans::snapshot

#endif // VANS_COMMON_SNAPSHOT_HH
