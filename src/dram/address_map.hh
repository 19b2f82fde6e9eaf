/**
 * @file
 * Physical-address to DRAM-coordinate decomposition.
 *
 * Default scheme is row : rank : bank-group : bank : column : offset
 * (from MSB to LSB), i.e. consecutive cache lines walk the columns of
 * one row, then switch banks -- the classic open-page-friendly map.
 * An interleaved variant swaps bank bits below the column bits so
 * consecutive lines stripe across banks (bank-interleaved map).
 */

#ifndef VANS_DRAM_ADDRESS_MAP_HH
#define VANS_DRAM_ADDRESS_MAP_HH

#include <cstdint>

#include "common/types.hh"
#include "dram/timing.hh"

namespace vans::dram
{

/** Decoded DRAM coordinates for one address. */
struct DramCoord
{
    unsigned rank = 0;
    unsigned bankGroup = 0;
    unsigned bank = 0;
    std::uint64_t row = 0;
    std::uint64_t column = 0; ///< In cache-line-sized units.

    bool
    sameBank(const DramCoord &o) const
    {
        return rank == o.rank && bankGroup == o.bankGroup &&
               bank == o.bank;
    }
};

/** Address-mapping policy. */
enum class MapScheme : std::uint8_t
{
    RowBankCol,  ///< Row : rank : bg : bank : col : offset.
    BankStripe,  ///< Row : col-hi : rank : bg : bank : col-lo : offset.
};

/** Maps physical addresses onto DRAM coordinates. */
class AddressMap
{
  public:
    AddressMap(const DramGeometry &geom, MapScheme scheme);

    /** Decode @p addr (any alignment) into bank coordinates. */
    DramCoord decode(Addr addr) const;

    /**
     * Step @p c, the coordinates of one line, to those of the next
     * line up when that line lies in the same bank and row: under
     * RowBankCol until the column wraps, under BankStripe within one
     * 4-line chunk. Cheaper than decode(), which a multi-line access
     * would otherwise pay per line.
     * @return false, leaving @p c as it was, when the next line lies
     *         elsewhere; decode() it then.
     */
    bool
    stepColumn(DramCoord &c) const
    {
        if ((c.column & stepMask) == stepMask)
            return false;
        ++c.column;
        return true;
    }

    const DramGeometry &geometry() const { return geom; }

  private:
    DramGeometry geom;
    MapScheme scheme;
    unsigned colBits;  ///< log2(rowBytes / cacheLineSize).
    unsigned bankBits;
    unsigned bgBits;
    unsigned rankBits;
    std::uint64_t rowsPerBank;
    /** Column bits a line-to-line step stays within. */
    std::uint64_t stepMask;
};

} // namespace vans::dram

#endif // VANS_DRAM_ADDRESS_MAP_HH
