#ifndef FIXTURE_NVRAM_COUNTER_HH
#define FIXTURE_NVRAM_COUNTER_HH

namespace vans::nvram
{

/** Direct-mapped cache tag store (Memory-mode front-end shape). */
class Counter
{
  public:
    explicit Counter(unsigned sets) : numSets(sets) {}

    /** The list of in-flight state: serialize REQUIREs it. */
    bool quiescent() const { return pendingFills.empty(); }

    void serialize(snapshot::Archive &ar)
    {
        VANS_REQUIRE("counter", 0, quiescent(),
                     "snapshot of a counter with fills in flight");
        ar.seq(tags);
        ar.seq(dirtyBits);
        statGroup.serialize(ar);
    }

    StatGroup &stats() { return statGroup; }

  private:
    // Construction-time configuration: const, so a restored world
    // built from the same configuration already holds it.
    const unsigned numSets;

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

    // MSHR bookkeeping: not serialized, but tested by the
    // quiescent() that serialize REQUIREs, so every capture checks
    // it is empty -- and an empty vector holds no PendingFill whose
    // fields could need capturing.
    struct PendingFill
    {
        unsigned long long line = 0;
        unsigned long long issuedAt = 0;
    };
    std::vector<PendingFill> pendingFills;

    // Victims staged while one fill runs; no quiescence test can see
    // it, so its reason is written down.
    // simlint-transient(scratch: cleared before every use and dead
    // between fills)
    std::vector<unsigned long long> victimScratch;

    // Trace ids that attachTracer refills; a restored world
    // re-attaches its own recorder.
    struct TraceWiring
    {
        unsigned short track = 0;
        unsigned short fill = 0;
    };
    TraceWiring wiring;
};

} // namespace vans::nvram

#endif
