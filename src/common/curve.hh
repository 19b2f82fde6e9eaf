/**
 * @file
 * Curve container and the analysis primitives LENS builds on.
 *
 * A Curve is an ordered series of (x, y) points, typically latency or
 * bandwidth versus a swept size. The analysis entry points are:
 *
 *  - findInflections(): locate the x positions where y jumps by more
 *    than a relative threshold between consecutive sweep points. On a
 *    log-spaced size sweep, buffer-capacity overflows appear exactly
 *    as such jumps (paper section III-A, "buffer prober").
 *  - segmentLevels(): average y within the plateaus delimited by the
 *    inflections, used to attribute a latency to each buffer level.
 *  - accuracyAgainst(): the paper's validation metric -- arithmetic
 *    mean over sweep points of (1 - |sim - ref| / ref).
 */

#ifndef VANS_COMMON_CURVE_HH
#define VANS_COMMON_CURVE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace vans
{

/** One sampled point of a swept experiment. */
struct CurvePoint
{
    double x;
    double y;
};

/** Ordered (x, y) series with the analysis helpers LENS uses. */
class Curve
{
  public:
    Curve() = default;
    explicit Curve(std::string curve_name) : label(std::move(curve_name))
    {}

    void add(double x, double y) { pts.push_back({x, y}); }

    const std::vector<CurvePoint> &points() const { return pts; }
    std::size_t size() const { return pts.size(); }
    bool empty() const { return pts.empty(); }
    const CurvePoint &operator[](std::size_t i) const { return pts[i]; }

    const std::string &name() const { return label; }

    /** y value at the largest x <= @p x (or first point). */
    double valueAt(double x) const;

    /**
     * X positions where y rises by more than @p rel_threshold
     * relative to the previous point (e.g. 0.25 = a 25% jump).
     * Consecutive jumps are merged: only the first x of a rising run
     * is reported, which maps a multi-point ramp to one inflection.
     */
    std::vector<double> findInflections(double rel_threshold) const;

    /**
     * Mean y of each plateau delimited by @p inflections (the x
     * values returned by findInflections). Returns inflections.size()
     * + 1 level values, low-x plateau first.
     */
    std::vector<double>
    segmentLevels(const std::vector<double> &inflections) const;

    /**
     * Paper-style accuracy versus a reference curve evaluated at the
     * same x positions: mean over points of max(0, 1 - |y-ref|/ref).
     * X values are matched by nearest reference point.
     */
    double accuracyAgainst(const Curve &reference) const;

    /** Maximum y over all points (0 on empty). */
    double maxY() const;

    /** Minimum y over all points (0 on empty). */
    double minY() const;

  private:
    std::vector<CurvePoint> pts;
    std::string label;
};

/**
 * Standard log2-spaced sweep of sizes in [lo, hi], multiplying by
 * @p factor (default 2) each step; both ends inclusive.
 */
std::vector<std::uint64_t> logSweep(std::uint64_t lo, std::uint64_t hi,
                                    unsigned factor = 2);

/** Format a byte count as "64", "16K", "4M", "256M"... */
std::string formatSize(std::uint64_t bytes);

} // namespace vans

#endif // VANS_COMMON_CURVE_HH
