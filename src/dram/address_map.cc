#include "dram/address_map.hh"

#include <algorithm>

#include "common/logging.hh"

namespace vans::dram
{

namespace
{

/** BankStripe's contiguous column bits: one 256 B chunk. */
constexpr unsigned loColBits = 2;

} // namespace

AddressMap::AddressMap(const DramGeometry &g, MapScheme s)
    : geom(g), scheme(s)
{
    if (!isPowerOf2(geom.rowBytes) || !isPowerOf2(geom.banksPerGroup) ||
        !isPowerOf2(geom.bankGroups) || !isPowerOf2(geom.ranks)) {
        fatal("DRAM geometry values must be powers of two");
    }
    colBits = log2i(geom.rowBytes / cacheLineSize);
    bankBits = log2i(geom.banksPerGroup);
    bgBits = log2i(geom.bankGroups);
    rankBits = log2i(geom.ranks);
    rowsPerBank = geom.rowsPerBank();
    stepMask = (1ull << (scheme == MapScheme::BankStripe
                             ? std::min(colBits, loColBits)
                             : colBits)) -
               1;
}

DramCoord
AddressMap::decode(Addr addr) const
{
    DramCoord c;
    std::uint64_t a = addr / cacheLineSize;

    auto take = [&a](unsigned bits) {
        std::uint64_t v = a & ((1ull << bits) - 1);
        a >>= bits;
        return v;
    };

    switch (scheme) {
      case MapScheme::RowBankCol:
        c.column = take(colBits);
        c.bank = static_cast<unsigned>(take(bankBits));
        c.bankGroup = static_cast<unsigned>(take(bgBits));
        c.rank = static_cast<unsigned>(take(rankBits));
        c.row = a;
        break;
      case MapScheme::BankStripe: {
        // Low two column bits stay contiguous (one 256B chunk), then
        // banks stripe, then the rest of the columns, then the row.
        unsigned lo_bits = std::min(colBits, loColBits);
        std::uint64_t col_lo = take(lo_bits);
        c.bank = static_cast<unsigned>(take(bankBits));
        c.bankGroup = static_cast<unsigned>(take(bgBits));
        c.rank = static_cast<unsigned>(take(rankBits));
        std::uint64_t col_hi = take(colBits - lo_bits);
        c.column = (col_hi << lo_bits) | col_lo;
        c.row = a;
        break;
      }
    }
    c.row %= rowsPerBank;
    return c;
}

} // namespace vans::dram
