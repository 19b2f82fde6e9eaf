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
    }

  private:
    std::vector<unsigned long long> tags;
    // The dirty-bit array that serialize forgets: a forked world
    // restores every cached line as clean, drops the victim
    // writebacks, and silently diverges from the warm prototype --
    // the exact bug class snapshotcover catches.
    std::vector<bool> dirtyBits;
};

} // namespace vans::nvram

#endif
