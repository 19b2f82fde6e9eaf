/**
 * @file
 * Statistics: typed counters registered once by name.
 *
 * A component owns a StatGroup and declares each counter after it as
 * a member, `StatScalar hits{statGroup, "hits"};`, bumped directly
 * (`hits.inc()`). The only constructor links the counter into the
 * group's name-sorted list for its kind, without allocating. The
 * group walks those lists to render (dump(), MetricsRegistry JSON)
 * and to serialize; a restore writes values into the members in
 * place. A Listing::All group lists every registered stat; a
 * Listing::Used group lists a scalar once it is nonzero and an
 * average or distribution once it has a sample. Either lists a
 * scalar made by name, as export-time writers do, from its creation.
 */

#ifndef VANS_COMMON_STATS_HH
#define VANS_COMMON_STATS_HH

#include <algorithm>
#include <cstdint>
#include <forward_list>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace vans::snapshot
{
class Archive;
} // namespace vans::snapshot

namespace vans
{

class StatGroup;

/** A registered stat's name and its link in its group's list. */
class StatEntry
{
  public:
    StatEntry(const StatEntry &) = delete;
    StatEntry &operator=(const StatEntry &) = delete;

    const char *name() const { return statName; }

  protected:
    enum Kind { Scalar, Average, Distribution, Kinds };

    /** Link into @p group's name-sorted list of @p kind. The group
     *  must already be constructed (declare a stat after its group)
     *  and @p name, a literal, must outlive the stat. */
    StatEntry(StatGroup &group, Kind kind, const char *name);
    ~StatEntry() = default;

  private:
    friend class StatGroup;
    const char *statName;
    StatEntry *next = nullptr;
    /** Made by StatGroup::scalar(name): listed whatever its value. */
    bool byName = false;
};

/** A monotonically accumulating counter. */
class StatScalar : public StatEntry
{
  public:
    StatScalar(StatGroup &group, const char *name)
        : StatEntry(group, Scalar, name)
    {}

    void inc(std::uint64_t n = 1) { total += n; }
    void set(std::uint64_t v) { total = v; }
    std::uint64_t value() const { return total; }
    bool used() const { return total != 0; }

  private:
    std::uint64_t total = 0;
};

/** Running mean / min / max of a double-valued sample stream. */
class StatAverage : public StatEntry
{
  public:
    StatAverage(StatGroup &group, const char *name)
        : StatEntry(group, Average, name)
    {}

    void
    sample(double v)
    {
        m.sum += v;
        ++m.n;
        m.lo = std::min(m.lo, v);
        m.hi = std::max(m.hi, v);
    }

    double mean() const { return m.n ? m.sum / static_cast<double>(m.n) : 0; }
    double min() const { return m.n ? m.lo : 0; }
    double max() const { return m.n ? m.hi : 0; }
    std::uint64_t count() const { return m.n; }
    bool used() const { return m.n != 0; }

  protected:
    StatAverage(StatGroup &group, Kind kind, const char *name)
        : StatEntry(group, kind, name)
    {}

  private:
    /** The group serializes the raw moments: mean()*count() would
     *  not round-trip the sum bit-exactly. */
    friend class StatGroup;
    struct Moments
    {
        double sum = 0;
        std::uint64_t n = 0;
        double lo = std::numeric_limits<double>::max();
        double hi = std::numeric_limits<double>::lowest();
    } m;
};

/**
 * An average that also retains its samples (up to a cap), so
 * percentiles can be computed after a run. Distributions are
 * observability-only: the snapshot stream and identicalTo() leave
 * them out, so adding one never perturbs the warm-world fork.
 */
class StatDistribution : public StatAverage
{
  public:
    StatDistribution(StatGroup &group, const char *name,
                     std::size_t max_samples = 1u << 20)
        : StatAverage(group, Distribution, name), cap(max_samples)
    {}

    void
    sample(double v)
    {
        StatAverage::sample(v);
        if (samples.size() < cap)
            samples.push_back(v);
    }

    /** p in [0,1]; interpolated percentile over retained samples. */
    double percentile(double p) const;

  private:
    std::vector<double> samples;
    std::size_t cap;
};

/** The registered stats of one component, by name. */
// simlint-allow(statscover, snapshotcover: StatGroup is what the
// metrics walk iterates and what its serialize body captures;
// its listing policy is fixed at construction and its export-time
// scalars carry no simulated state)
class StatGroup
{
  public:
    /** Which registered stats the group lists (see the file doc). */
    enum class Listing { Used, All };

    explicit StatGroup(std::string group_name,
                       Listing listing = Listing::Used)
        : groupName(std::move(group_name)), listing(listing)
    {}

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /**
     * The scalar @p name, created, owned and listed by the group on
     * first use. Only for writers that fill a group at export time;
     * a component declares its counters as StatScalar members.
     */
    StatScalar &scalar(std::string_view name);

    const std::string &name() const { return groupName; }

    /** The listed stats of one kind, in name order. */
    template <typename T>
    struct Listed : std::vector<const T *>
    {
        /** The listed stat @p name, or nullptr. */
        const T *
        find(std::string_view name) const
        {
            for (const T *s : *this) {
                if (name == s->name())
                    return s;
            }
            return nullptr;
        }
        std::size_t count(std::string_view name) const
        {
            return find(name) ? 1 : 0;
        }
    };

    Listed<StatScalar> allScalars() const
    {
        return listed<StatScalar>(StatEntry::Scalar);
    }
    Listed<StatAverage> allAverages() const
    {
        return listed<StatAverage>(StatEntry::Average);
    }
    Listed<StatDistribution> allDistributions() const
    {
        return listed<StatDistribution>(StatEntry::Distribution);
    }

    /** Value of the registered scalar @p name, 0 if there is none. */
    std::uint64_t scalarValue(std::string_view name) const;

    /** Render "group.stat = value" lines. */
    std::string dump() const;

    /**
     * Serialize the listed scalars and averages by name (bit-exact).
     * A restore works in place: every registered scalar and average
     * takes its stream value, or zero when the stream does not list
     * it. A stream key the group never registered is a fatal
     * mismatch.
     */
    void serialize(snapshot::Archive &ar);

    /** True when both groups serialize to the same bytes (test
     *  helper). */
    bool identicalTo(const StatGroup &other) const;

  private:
    friend class StatEntry;

    /** A scalar made by scalar(name), with the name it points into. */
    struct OwnedScalar
    {
        OwnedScalar(StatGroup &group, std::string_view name)
            : key(name), stat(group, key.c_str())
        {
            stat.byName = true;
        }
        std::string key;
        StatScalar stat;
    };

    /** The entry @p name of the list of @p kind, or nullptr. */
    StatEntry *findEntry(StatEntry::Kind kind, std::string_view name) const;
    /** The stat @p key of @p kind, which must be registered. */
    template <typename T>
    T &registered(StatEntry::Kind kind, const std::string &key);

    template <typename T>
    Listed<T>
    listed(StatEntry::Kind kind) const
    {
        Listed<T> out;
        for (const StatEntry *e = heads[kind]; e; e = e->next) {
            const T &stat = static_cast<const T &>(*e);
            if (listing == Listing::All || e->byName || stat.used())
                out.push_back(&stat);
        }
        return out;
    }

    std::string groupName;
    Listing listing;
    /** One name-sorted list per StatEntry::Kind. */
    StatEntry *heads[StatEntry::Kinds] = {};
    std::forward_list<OwnedScalar> owned;
};

} // namespace vans

#endif // VANS_COMMON_STATS_HH
