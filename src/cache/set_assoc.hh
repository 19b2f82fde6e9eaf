/**
 * @file
 * Flat set-associative array with LRU recency kept in the ways
 * themselves, shared by the cache levels and the TLB levels.
 *
 * A level is one set-major array of Way entries, each one 64-bit
 * word:
 *
 *   bit 63   | 62 .. 55 | 54 .. 0
 *   dirty    | rank     | key (cache tag or TLB page number)
 *
 * Each way carries a recency rank: 0 marks an empty way, and the n
 * valid ways of a set hold the ranks 1..n, 1 being the most recently
 * used and n the least. All-zero memory is therefore an empty level,
 * so the array comes from calloc: construction is one zeroed
 * allocation and destruction is one free. Under glibc only the first
 * large array is a fresh mapping, whose untouched sets never fault
 * in. Freeing it raises the dynamic mmap threshold, so later arrays
 * of its size come from the heap: calloc clears, and so faults in,
 * every byte, and with other allocations in between, fragmentation
 * can keep two arrays resident. An 8-byte way halves both costs.
 *
 * The ranks order exactly what a per-set list of ways, front = most
 * recent, would order: a touch moves a way to rank 1 and ages the
 * ways that were more recent; a fill takes an empty way when the set
 * has one and otherwise the way ranked n; a freed way leaves the
 * order and the less recent ways close the gap. Ranks are 8 bits,
 * which bounds a set at maxWays ways.
 *
 * Keys are Way::keyBits wide. A Table V key needs at most 52 bits
 * for any 64-bit address (a 4 KB page number, or the tag above the
 * L1's 64 sets of 64 B lines), but a level with few sets or small
 * lines can be handed a wider one. Every geometry still builds; the
 * caller REQUIREs that a key fits before it fills or installs it,
 * naming the level and the address, so no key is ever truncated. A
 * lookup of a wider key simply misses: no stored key equals it.
 *
 * Not built from FlatLru: each of those owns four vectors (keys,
 * recency links, an open-addressed hash), sized for one large LRU. A
 * level here is thousands of sets of a few ways each, so one FlatLru
 * per set would cost four allocations per set, and a linear scan of
 * one contiguous set is already the lookup.
 */

#ifndef VANS_CACHE_SET_ASSOC_HH
#define VANS_CACHE_SET_ASSOC_HH

#include <cstdint>
#include <cstdlib>
#include <memory>

#include "common/logging.hh"
#include "common/types.hh"

namespace vans::cache
{

/** One way of a set, packed in one word. All-zero is an empty way. */
struct Way
{
    /** Bits of a key; the rank and the dirty bit take the rest. */
    static constexpr unsigned keyBits = 55;
    /** The widest key a way holds. */
    static constexpr Addr maxKey = (Addr{1} << keyBits) - 1;

    std::uint64_t key : keyBits; ///< Tag (caches) or page (TLBs).
    std::uint64_t rank : 8;      ///< 0 = empty, else 1 (most recent) .. n.
    std::uint64_t dirty : 1;     ///< Cache lines only.
};

static_assert(sizeof(Way) == 8, "a way is one 64-bit word");

/** Sets x ways of Way entries, set-major, ranked per set. */
// simlint-hot
class SetAssocArray
{
  public:
    /** The most ways one set can rank. */
    static constexpr unsigned maxWays = 255;

    /** @p sets x @p ways empty ways; @p ways is 1..maxWays. */
    SetAssocArray(std::uint64_t sets, unsigned ways)
        : numWays(ways),
          slots(static_cast<Way *>(std::calloc(sets * ways, sizeof(Way))))
    {
        if (!slots)
            fatal("cannot allocate %llu x %u cache ways",
                  static_cast<unsigned long long>(sets), ways);
    }

    /** The valid way of set @p set that holds @p key, or nullptr. */
    Way *find(std::uint64_t set, Addr key) { return scan(first(set), key); }
    const Way *
    find(std::uint64_t set, Addr key) const
    {
        return scan(static_cast<const Way *>(first(set)), key);
    }

    /** The way a fill of @p set takes: an empty one if the set has
     *  one, else its least recent. */
    Way &
    victim(std::uint64_t set)
    {
        Way *s = first(set);
        Way *lru = s;
        for (Way *w = s; w != s + numWays; ++w) {
            if (w->rank == 0)
                return *w;
            if (w->rank == numWays)
                lru = w;
        }
        return *lru;
    }

    /** Make @p w, a way of @p set, the most recent. An empty @p w
     *  joins the order, so every valid way ages. */
    void
    touch(std::uint64_t set, Way &w)
    {
        unsigned from = w.rank != 0 ? w.rank : numWays + 1;
        Way *s = first(set);
        for (Way *x = s; x != s + numWays; ++x) {
            if (x->rank != 0 && x->rank < from)
                ++x->rank;
        }
        w.rank = 1;
    }

    /** Empty @p w, a valid way of @p set. */
    void
    clear(std::uint64_t set, Way &w)
    {
        Way *s = first(set);
        for (Way *x = s; x != s + numWays; ++x) {
            if (x->rank > w.rank)
                --x->rank;
        }
        w = Way{};
    }

  private:
    struct Free
    {
        void operator()(Way *w) const { std::free(w); }
    };

    Way *first(std::uint64_t set) const { return slots.get() + set * numWays; }

    template <typename W>
    W *
    scan(W *s, Addr key) const
    {
        for (W *w = s; w != s + numWays; ++w) {
            if (w->rank != 0 && w->key == key)
                return w;
        }
        return nullptr;
    }

    unsigned numWays;
    std::unique_ptr<Way, Free> slots;
};

} // namespace vans::cache

#endif // VANS_CACHE_SET_ASSOC_HH
