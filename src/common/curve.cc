#include "common/curve.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.hh"
#include "common/logging.hh"

namespace vans
{

double
Curve::valueAt(double x) const
{
    if (pts.empty())
        return 0;
    double best = pts.front().y;
    for (const auto &p : pts) {
        if (p.x <= x)
            best = p.y;
        else
            break;
    }
    return best;
}

std::vector<double>
Curve::findInflections(double rel_threshold) const
{
    // A "rising run" is a maximal sequence of consecutive steps
    // each rising by at least step_min; the run is an inflection
    // when its cumulative rise exceeds rel_threshold. The reported
    // x is the run's start -- the last point still on the lower
    // plateau, which is the paper's capacity-estimate convention.
    double step_min = std::max(0.04, rel_threshold / 5.0);
    std::vector<double> out;
    std::size_t i = 1;
    while (i < pts.size()) {
        double prev = pts[i - 1].y;
        double cur = pts[i].y;
        bool rising =
            prev > 0 && (cur - prev) / prev >= step_min;
        if (!rising) {
            ++i;
            continue;
        }
        std::size_t start = i - 1;
        double base = pts[start].y;
        std::size_t j = i;
        while (j < pts.size() && pts[j - 1].y > 0 &&
               (pts[j].y - pts[j - 1].y) / pts[j - 1].y >= step_min) {
            ++j;
        }
        double total = base > 0 ? (pts[j - 1].y - base) / base : 0;
        if (total > rel_threshold)
            out.push_back(pts[start].x);
        i = j;
    }
    return out;
}

std::vector<double>
Curve::segmentLevels(const std::vector<double> &inflections) const
{
    std::vector<double> levels;
    std::size_t seg = 0;
    double sum = 0;
    std::size_t n = 0;
    for (const auto &p : pts) {
        while (seg < inflections.size() && p.x > inflections[seg]) {
            levels.push_back(n ? sum / static_cast<double>(n) : 0);
            sum = 0;
            n = 0;
            ++seg;
        }
        sum += p.y;
        ++n;
    }
    levels.push_back(n ? sum / static_cast<double>(n) : 0);
    while (levels.size() < inflections.size() + 1)
        levels.push_back(0);
    return levels;
}

double
Curve::accuracyAgainst(const Curve &reference) const
{
    if (pts.empty() || reference.empty())
        return 0;
    double acc_sum = 0;
    for (const auto &p : pts) {
        // Nearest reference point by |log-x| distance (sweeps are
        // log-spaced, so that is the natural metric).
        const CurvePoint *best = &reference[0];
        double best_d = std::numeric_limits<double>::max();
        for (const auto &r : reference.points()) {
            double d = std::fabs(std::log2(std::max(r.x, 1.0)) -
                                 std::log2(std::max(p.x, 1.0)));
            if (d < best_d) {
                best_d = d;
                best = &r;
            }
        }
        if (best->y == 0)
            continue;
        double err = std::fabs(p.y - best->y) / best->y;
        acc_sum += std::max(0.0, 1.0 - err);
    }
    return acc_sum / static_cast<double>(pts.size());
}

double
Curve::maxY() const
{
    double m = 0;
    for (const auto &p : pts)
        m = std::max(m, p.y);
    return m;
}

double
Curve::minY() const
{
    if (pts.empty())
        return 0;
    double m = pts.front().y;
    for (const auto &p : pts)
        m = std::min(m, p.y);
    return m;
}

std::vector<std::uint64_t>
logSweep(std::uint64_t lo, std::uint64_t hi, unsigned factor)
{
    if (factor < 2)
        panic("logSweep factor must be >= 2");
    // lo = 0 would loop forever: 0 * factor stays 0, so the sweep
    // variable never advances toward hi.
    VANS_REQUIRE("curve", 0, lo >= 1,
                 "logSweep lower bound must be >= 1 (got %llu)",
                 static_cast<unsigned long long>(lo));
    std::vector<std::uint64_t> out;
    for (std::uint64_t v = lo; v <= hi; v *= factor) {
        out.push_back(v);
        if (v > hi / factor)
            break;
    }
    if (out.empty() || out.back() != hi)
        out.push_back(hi);
    return out;
}

std::string
formatSize(std::uint64_t bytes)
{
    const char *suffix = "";
    std::uint64_t v = bytes;
    if (bytes >= (1ull << 30) && bytes % (1ull << 30) == 0) {
        v = bytes >> 30;
        suffix = "G";
    } else if (bytes >= (1ull << 20) && bytes % (1ull << 20) == 0) {
        v = bytes >> 20;
        suffix = "M";
    } else if (bytes >= (1ull << 10) && bytes % (1ull << 10) == 0) {
        v = bytes >> 10;
        suffix = "K";
    }
    std::ostringstream out;
    out << v << suffix;
    return out.str();
}

} // namespace vans
