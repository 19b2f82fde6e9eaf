/**
 * @file
 * Host-time spans recorded by the benchmark around its calls into the
 * simulator's layers (world construction, snapshot capture/restore,
 * LENS ptrChase and streams, CpuCore::run, trace generation, the
 * cache replay, metricsInto). Spans stay in memory and are written
 * out once the run ends; a disabled recorder records nothing.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** One host-time interval spent inside one call into a layer. */
struct Span
{
    const char *layer;   ///< Module the call enters ("lens", "cpu", ...).
    const char *name;    ///< The call ("ptrChase", "restoreInto", ...).
    std::uint32_t id;    ///< Sweep point or trace index the span serves.
    std::int32_t parent; ///< Index of the enclosing span; -1 at a root.
    double start;        ///< Seconds since the recorder was created.
    double end;
};

/** Records nested spans; a disabled recorder costs one branch. */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled);

    bool enabled() const { return on; }

    /** Records [construction, destruction) as a span when enabled. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, const char *layer, const char *name,
              std::uint32_t id = 0);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder &rec;
        std::int32_t index = -1;
    };

    const std::vector<Span> &spans() const { return list; }

    /** Append spans recorded by a forked copy of this recorder after
     *  it had size() spans; their parent indices already fit. */
    void append(const std::vector<Span> &more);

    /**
     * Self time (duration minus the time its children cover) summed
     * per "layer.name", over the spans below roots named @p root.
     */
    std::map<std::string, double> selfTimes(const char *root) const;

    /** Total duration of the roots named @p root. */
    double rootTime(const char *root) const;

    /** Write every span as Chrome trace-event JSON (Perfetto). */
    bool writeChromeJson(const std::string &path) const;

  private:
    bool on;
    Clock::time_point t0;
    std::vector<Span> list;
    std::vector<std::int32_t> open;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
