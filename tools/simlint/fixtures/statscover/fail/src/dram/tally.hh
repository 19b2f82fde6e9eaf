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

  private:
    // The group is neither exported nor serialized: no accessor or
    // metricsInto reaches it, so the hit ratio that sizes the
    // near-memory tier is counted on every access and then reported
    // nowhere. The counters themselves are registered in the group,
    // so the one finding is on the group.
    StatGroup statGroup{"tally"};
    StatScalar hits{statGroup, "hits"};
    StatScalar misses{statGroup, "misses"};
    StatAverage hitRatio{statGroup, "hit_ratio"};
};

} // namespace vans::dram

#endif
