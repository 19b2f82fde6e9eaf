#ifndef FIXTURE_DRAM_TALLY_HH
#define FIXTURE_DRAM_TALLY_HH

namespace vans::dram
{

/** Cache-front-end accounting (Memory-mode DRAM cache shape). */
class Tally
{
  public:
    void
    onAccess(bool hit)
    {
        (hit ? hits : misses).inc();
        hitRatio.sample(hit ? 1.0 : 0.0);
    }

    /** The metrics walk reaches every counter through the group. */
    StatGroup &stats() { return statGroup; }

  private:
    StatGroup statGroup{"tally"};
    StatScalar hits{statGroup, "hits"};
    StatScalar misses{statGroup, "misses"};
    StatAverage hitRatio{statGroup, "hit_ratio"};
};

} // namespace vans::dram

#endif
