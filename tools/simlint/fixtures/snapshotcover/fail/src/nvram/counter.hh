#ifndef FIXTURE_NVRAM_COUNTER_HH
#define FIXTURE_NVRAM_COUNTER_HH

namespace vans::nvram
{

/** Direct-mapped cache tag store (Memory-mode front-end shape). */
class Counter
{
  public:
    explicit Counter(unsigned sets) : numSets(sets) {}

    bool quiescent() const { return fillsInFlight == 0; }

    void serialize(snapshot::Archive &ar)
    {
        VANS_REQUIRE("counter", 0, quiescent(),
                     "snapshot of a counter with fills in flight");
        ar.seq(tags);
    }

  private:
    const unsigned numSets;
    std::vector<unsigned long long> tags;
    // The dirty-bit array that serialize forgets: a forked world
    // restores every cached line as clean, drops the victim
    // writebacks, and silently diverges from the warm prototype --
    // the exact bug class snapshotcover catches. Neither const,
    // trace wiring nor the quiescent() gate excuses it.
    std::vector<bool> dirtyBits;
    unsigned fillsInFlight = 0;

    struct TraceWiring
    {
        unsigned short track = 0;
    };
    TraceWiring wiring;
};

} // namespace vans::nvram

#endif
