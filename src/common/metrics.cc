#include "common/metrics.hh"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace vans
{

namespace
{

/** JSON string escape (stat/group names are plain, but be safe). */
std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            out += c;
        }
    }
    return out;
}

/** JSON has no NaN/Inf literals; an unmeasurable value is null. */
void
appendNumber(std::ostringstream &o, double v)
{
    if (!std::isfinite(v)) {
        o << "null";
        return;
    }
    std::ostringstream tmp;
    tmp.precision(15);
    tmp << v;
    o << tmp.str();
}

/**
 * A statistic derived from an empty sample stream (min/max/mean/
 * percentiles at count == 0) has no value at all: emitting the
 * accessor's 0 fallback makes a cold counter indistinguishable from
 * a measured zero, and the raw +/-inf extrema must never reach the
 * document. Null is the honest spelling, and every JSON parser
 * accepts it.
 */
void
appendSampled(std::ostringstream &o, double v, std::uint64_t count)
{
    if (count == 0) {
        o << "null";
        return;
    }
    appendNumber(o, v);
}

/** `"name": {"mean": m, "min": lo, "max": hi` of @p a (a
 *  distribution is an average too), left open for the caller. */
void
appendMoments(std::ostringstream &o, const StatAverage &a)
{
    std::uint64_t n = a.count();
    o << "\n        \"" << jsonEscape(a.name()) << "\": {\"mean\": ";
    appendSampled(o, a.mean(), n);
    o << ", \"min\": ";
    appendSampled(o, a.min(), n);
    o << ", \"max\": ";
    appendSampled(o, a.max(), n);
}

} // namespace

std::string
MetricsRegistry::toJson() const
{
    std::ostringstream o;
    o << "{\n  \"groups\": [";
    bool first_group = true;
    for (const StatGroup *g : groups) {
        if (!first_group)
            o << ",";
        first_group = false;
        o << "\n    {\n      \"name\": \"" << jsonEscape(g->name())
          << "\",\n      \"scalars\": {";
        bool first = true;
        for (const StatScalar *s : g->allScalars()) {
            if (!first)
                o << ",";
            first = false;
            o << "\n        \"" << jsonEscape(s->name())
              << "\": " << s->value();
        }
        o << (first ? "}" : "\n      }") << ",\n      \"averages\": {";
        first = true;
        for (const StatAverage *a : g->allAverages()) {
            if (!first)
                o << ",";
            first = false;
            appendMoments(o, *a);
            o << ", \"count\": " << a->count() << "}";
        }
        o << (first ? "}" : "\n      }")
          << ",\n      \"distributions\": {";
        first = true;
        for (const StatDistribution *d : g->allDistributions()) {
            if (!first)
                o << ",";
            first = false;
            std::uint64_t n = d->count();
            appendMoments(o, *d);
            o << ", \"p50\": ";
            appendSampled(o, d->percentile(0.5), n);
            o << ", \"p99\": ";
            appendSampled(o, d->percentile(0.99), n);
            o << ", \"p999\": ";
            appendSampled(o, d->percentile(0.999), n);
            o << ", \"count\": " << n << "}";
        }
        o << (first ? "}" : "\n      }") << "\n    }";
    }
    o << "\n  ]\n}\n";
    return o.str();
}

void
MetricsRegistry::writeJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write metrics file '%s'", path.c_str());
    out << toJson();
    if (!out)
        fatal("short write to metrics file '%s'", path.c_str());
}

} // namespace vans
