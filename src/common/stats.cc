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
    // A plain panic, not a check macro: checkStatsInto registers
    // scalars while it holds the check-site registry's lock.
    if (order == 0)
        panic("stat group \"%s\" registers \"%s\" twice",
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

void
StatGroup::writeListed(snapshot::StateSink &sink) const
{
    Listed<StatScalar> ss = allScalars();
    sink.u64(ss.size());
    for (const StatScalar *s : ss) {
        sink.str(s->name());
        sink.u64(s->value());
    }
    Listed<StatAverage> as = allAverages();
    sink.u64(as.size());
    for (const StatAverage *a : as) {
        sink.str(a->name());
        sink.f64(a->m.sum);
        sink.u64(a->m.n);
        sink.f64(a->m.lo);
        sink.f64(a->m.hi);
    }
}

void
StatGroup::snapshotTo(snapshot::StateSink &sink) const
{
    sink.tag("stats");
    sink.str(groupName);
    writeListed(sink);
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
StatGroup::restoreFrom(snapshot::StateSource &src)
{
    src.tag("stats");
    std::string name = src.str();
    VANS_REQUIRE("stats", 0, name == groupName,
                 "stat group mismatch: stream has \"%s\", "
                 "restorer is \"%s\"",
                 name.c_str(), groupName.c_str());
    for (StatEntry *e = heads[StatEntry::Scalar]; e; e = e->next)
        static_cast<StatScalar *>(e)->set(0);
    for (StatEntry *e = heads[StatEntry::Average]; e; e = e->next)
        static_cast<StatAverage *>(e)->m = {};
    // Each stat is looked up before its values are read: C++17 orders
    // a call's object expression before its arguments, and a braced
    // list left to right.
    for (std::uint64_t n = src.u64(); n > 0; --n)
        registered<StatScalar>(StatEntry::Scalar, src.str())
            .set(src.u64());
    for (std::uint64_t n = src.u64(); n > 0; --n) {
        StatAverage &a =
            registered<StatAverage>(StatEntry::Average, src.str());
        a.m = {src.f64(), src.u64(), src.f64(), src.f64()};
    }
}

bool
StatGroup::identicalTo(const StatGroup &other) const
{
    snapshot::StateSink mine, theirs;
    writeListed(mine);
    other.writeListed(theirs);
    return mine.data() == theirs.data();
}

} // namespace vans
