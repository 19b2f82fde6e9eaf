/**
 * @file
 * Warm-world snapshot/fork framework.
 *
 * A sweep re-pays a multi-thousand-line warm-up per point unless the
 * warm state can be captured once and cloned. This header provides
 * the pieces: a typed byte-stream (StateSink / StateSource), an
 * Archive over it through which every stateful component serializes
 * itself, and a WorldSnapshot that captures a quiescent (EventQueue,
 * MemorySystem) pair and restores it into a freshly built world in
 * O(state) with zero re-simulation.
 *
 * Each component has one `void serialize(Archive &ar)` body that
 * names each of its fields once. A capture archive writes the field;
 * a restore archive overwrites it with the stream's value. Capture
 * and restore therefore cannot drift apart. Steps only a restore
 * needs (re-arming a timer, growing a slab) run under
 * `if (ar.loading())`, and a capture never mutates the component.
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
 * component re-arms when it is restored. Restore therefore schedules
 * its re-armed timers before the caller issues any new work, so those
 * timers keep lower sequence numbers than every measurement event --
 * exactly the order the continuously-run reference world executes,
 * which is what makes a forked run tick-for-tick identical to it.
 */

#ifndef VANS_COMMON_SNAPSHOT_HH
#define VANS_COMMON_SNAPSHOT_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
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
 * One serialization body for both directions. Built over a StateSink
 * it captures: each field is written. Built over a StateSource it
 * restores: each field is overwritten with the stream's value.
 */
class Archive
{
  public:
    explicit Archive(StateSink &s) : sink(&s) {}
    explicit Archive(StateSource &s) : src(&s) {}

    /** True when restoring. */
    bool loading() const { return src != nullptr; }

    /** A named section (verified on restore). */
    void
    tag(const char *name)
    {
        if (loading())
            src->tag(name);
        else
            sink->tag(name);
    }

    /** Bool, integer, double and string lvalues, and std::vector<bool>
     *  elements, in order. */
    template <typename... T>
    void
    operator()(T &&...fields)
    {
        (field(std::forward<T>(fields)), ...);
    }

    /** A size the configuration fixes: written on capture, REQUIREd
     *  equal on restore with @p what in the message. */
    void count(const char *what, std::uint64_t n);

    /** A sequence container: its size, then its elements. */
    template <typename C>
    void
    seq(C &c)
    {
        std::uint64_t n = c.size();
        field(n);
        if (loading())
            c.resize(n);
        for (auto &&e : c)
            field(e);
    }

    /**
     * A map: its size, then key/value pairs in key order, so the
     * stream does not depend on hash order. @p value(key, v)
     * serializes one value. A restore clears the map first.
     */
    template <typename M, typename F>
    void
    sortedMap(M &m, F value)
    {
        using Key = typename M::key_type;
        std::uint64_t n = m.size();
        field(n);
        if (loading()) {
            m.clear();
            for (; n > 0; --n) {
                Key key{};
                field(key);
                value(key, m[key]);
            }
            return;
        }
        std::vector<typename M::value_type *> sorted;
        sorted.reserve(n);
        for (auto &kv : m)
            sorted.push_back(&kv);
        std::sort(sorted.begin(), sorted.end(),
                  [](const auto *a, const auto *b) {
                      return a->first < b->first;
                  });
        for (auto *kv : sorted) {
            Key key = kv->first;
            field(key);
            value(key, kv->second);
        }
    }

    /** A map of integer values. */
    template <typename M>
    void
    sortedMap(M &m)
    {
        sortedMap(m, [this](const auto &, auto &v) { field(v); });
    }

  private:
    template <typename T>
    std::enable_if_t<std::is_integral_v<T>>
    field(T &v)
    {
        if (loading())
            v = static_cast<T>(src->u64());
        else
            sink->u64(v);
    }

    void
    field(bool &v)
    {
        if (loading())
            v = src->boolean();
        else
            sink->boolean(v);
    }

    void
    field(double &v)
    {
        if (loading())
            v = src->f64();
        else
            sink->f64(v);
    }

    void
    field(std::string &v)
    {
        if (loading())
            v = src->str();
        else
            sink->str(v);
    }

    void
    field(std::vector<bool>::reference v)
    {
        bool b = v;
        field(b);
        if (loading())
            v = b;
    }

    StateSink *sink = nullptr;
    StateSource *src = nullptr;
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
    static WorldSnapshot capture(EventQueue &eq, MemorySystem &sys);

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
