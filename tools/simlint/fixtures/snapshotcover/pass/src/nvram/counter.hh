#ifndef FIXTURE_NVRAM_COUNTER_HH
#define FIXTURE_NVRAM_COUNTER_HH

namespace vans::nvram
{

/** Direct-mapped cache tag store (Memory-mode front-end shape). */
class Counter
{
  public:
    void serialize(snapshot::Archive &ar)
    {
        ar.seq(tags);
        ar.seq(dirtyBits);
        statGroup.serialize(ar);
    }

    StatGroup &stats() { return statGroup; }

  private:
    // The architectural cache image: tag store plus the dirty bits
    // that decide which victims must write back to the media. Both
    // are serialized -- a restored world owes the DIMM exactly the
    // writebacks the prototype owed.
    std::vector<unsigned long long> tags;
    std::vector<bool> dirtyBits;

    // The counters ride in their group: serializing the group
    // restores each registered counter in place.
    StatGroup statGroup{"counter"};
    StatScalar fills{statGroup, "fills"};
    StatScalar writebacks{statGroup, "writebacks"};

    // MSHR bookkeeping cannot outlive quiescence (the snapshot
    // precondition drains every in-flight fill), so it is transient
    // by design rather than serialized.
    struct PendingFill
    {
        // simlint-transient(dies with its fetching entry before any
        // snapshot)
        unsigned long long line = 0;
        // simlint-transient(same: issue tick of a fill that cannot
        // outlive quiescence)
        unsigned long long issuedAt = 0;
    };
    // simlint-transient(an in-flight fill implies a non-quiescent
    // cache, which the snapshot precondition excludes)
    PendingFill pendingFill;
};

} // namespace vans::nvram

#endif
