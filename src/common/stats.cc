#include "common/stats.hh"

#include <cmath>
#include <cstring>
#include <sstream>

#include "common/check.hh"
#include "common/logging.hh"
#include "common/snapshot.hh"

namespace vans
{

StatEntry::StatEntry(StatGroup &group, Kind kind, const char *name)
    : statName(name)
{
    StatEntry **at = &group.heads[kind];
    int order = 1;
    while (*at && (order = std::strcmp((*at)->statName, name)) < 0)
        at = &(*at)->next;
    VANS_REQUIRE("stats", 0, order != 0,
                 "stat group \"%s\" registers \"%s\" twice",
                 group.name().c_str(), name);
    next = *at;
    *at = this;
}

double
StatDistribution::percentile(double p) const
{
    if (samples.empty())
        return 0;
    std::vector<double> sorted(samples);
    std::sort(sorted.begin(), sorted.end());
    if (p <= 0)
        return sorted.front();
    if (p >= 1)
        return sorted.back();
    double idx = p * static_cast<double>(sorted.size() - 1);
    std::size_t lo = static_cast<std::size_t>(std::floor(idx));
    std::size_t hi = static_cast<std::size_t>(std::ceil(idx));
    double frac = idx - static_cast<double>(lo);
    return sorted[lo] * (1 - frac) + sorted[hi] * frac;
}

StatEntry *
StatGroup::findEntry(StatEntry::Kind kind, std::string_view name) const
{
    for (StatEntry *e = heads[kind]; e; e = e->next) {
        if (name == e->statName)
            return e;
    }
    return nullptr;
}

StatScalar &
StatGroup::scalar(std::string_view name)
{
    if (StatEntry *e = findEntry(StatEntry::Scalar, name))
        return static_cast<StatScalar &>(*e);
    return owned.emplace_front(*this, name).stat;
}

std::uint64_t
StatGroup::scalarValue(std::string_view name) const
{
    StatEntry *e = findEntry(StatEntry::Scalar, name);
    return e ? static_cast<StatScalar *>(e)->value() : 0;
}

std::string
StatGroup::dump() const
{
    std::ostringstream out;
    for (const StatScalar *s : allScalars())
        out << groupName << '.' << s->name() << " = " << s->value()
            << '\n';
    for (const StatAverage *a : allAverages()) {
        out << groupName << '.' << a->name() << " = " << a->mean()
            << " (n=" << a->count() << ", min=" << a->min()
            << ", max=" << a->max() << ")\n";
    }
    for (const StatDistribution *d : allDistributions()) {
        out << groupName << '.' << d->name() << " = " << d->mean()
            << " (n=" << d->count() << ", p50=" << d->percentile(0.5)
            << ", p99=" << d->percentile(0.99)
            << ", p999=" << d->percentile(0.999) << ")\n";
    }
    return out.str();
}

template <typename T>
T &
StatGroup::registered(StatEntry::Kind kind, const std::string &key)
{
    StatEntry *e = findEntry(kind, key);
    VANS_REQUIRE("stats", 0, e != nullptr,
                 "stat group \"%s\" has no stat \"%s\" to restore",
                 groupName.c_str(), key.c_str());
    return static_cast<T &>(*e);
}

void
StatGroup::serialize(snapshot::Archive &ar)
{
    ar.tag("stats");
    std::string name = groupName;
    ar(name);
    VANS_REQUIRE("stats", 0, name == groupName,
                 "stat group mismatch: stream has \"%s\", "
                 "restorer is \"%s\"",
                 name.c_str(), groupName.c_str());
    if (ar.loading()) {
        for (StatEntry *e = heads[StatEntry::Scalar]; e; e = e->next)
            static_cast<StatScalar *>(e)->set(0);
        for (StatEntry *e = heads[StatEntry::Average]; e; e = e->next)
            static_cast<StatAverage *>(e)->m = {};
    }
    // The listed stats by name: a restore sets the registered stat
    // each name denotes.
    Listed<StatScalar> scalars;
    if (!ar.loading())
        scalars = allScalars();
    std::uint64_t n = scalars.size();
    ar(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        std::string key = ar.loading() ? "" : scalars[i]->name();
        std::uint64_t v = ar.loading() ? 0 : scalars[i]->value();
        ar(key, v);
        if (ar.loading())
            registered<StatScalar>(StatEntry::Scalar, key).set(v);
    }
    Listed<StatAverage> averages;
    if (!ar.loading())
        averages = allAverages();
    n = averages.size();
    ar(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        std::string key = ar.loading() ? "" : averages[i]->name();
        StatAverage::Moments m = ar.loading() ? StatAverage::Moments{}
                                              : averages[i]->m;
        ar(key, m.sum, m.n, m.lo, m.hi);
        if (ar.loading())
            registered<StatAverage>(StatEntry::Average, key).m = m;
    }
}

bool
StatGroup::identicalTo(const StatGroup &other) const
{
    auto image = [](const StatGroup &g) {
        snapshot::StateSink sink;
        snapshot::Archive ar(sink);
        // A capture never mutates the group it serializes.
        const_cast<StatGroup &>(g).serialize(ar);
        return sink.take();
    };
    return image(*this) == image(other);
}

} // namespace vans
