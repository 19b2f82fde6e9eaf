#include "dram/checker.hh"

#include <limits>

#include "common/check.hh"
#include "common/logging.hh"
#include "common/snapshot.hh"

namespace vans::dram
{

Ddr4Checker::Ddr4Checker(const DramTiming &timing,
                         const DramGeometry &geometry)
    : spec(timing), geom(geometry)
{
    reset();
}

void
Ddr4Checker::reset()
{
    banks.assign(geom.totalBanks(), CheckBank{});
    lastCasGroup.assign(geom.ranks * geom.bankGroups, 0);
    casSeenGroup.assign(geom.ranks * geom.bankGroups, false);
    lastActGroup.assign(geom.ranks * geom.bankGroups, 0);
    actSeenGroup.assign(geom.ranks * geom.bankGroups, false);
    lastCasAny = 0;
    casSeen = false;
    lastActAny = 0;
    actSeen = false;
    lastWrDataEndAny = 0;
    wrSeen = false;
    actWindow.clear();
    refDoneAt = 0;
    lastRef = 0;
    refSeen = false;
    numFed = 0;
    viols.clear();
}

unsigned
Ddr4Checker::bankIdx(const DramCommand &c) const
{
    return (c.rank * geom.bankGroups + c.bankGroup) *
               geom.banksPerGroup + c.bank;
}

unsigned
Ddr4Checker::groupIdx(const DramCommand &c) const
{
    return c.rank * geom.bankGroups + c.bankGroup;
}

void
Ddr4Checker::fail(const char *rule, std::string detail)
{
    viols.push_back({static_cast<std::size_t>(numFed), rule,
                     std::move(detail)});
}

void
Ddr4Checker::needGap(const char *rule, Tick earlier, unsigned cycles,
                     Tick now)
{
    Tick need = earlier + spec.cyc(cycles);
    if (now < need) {
        fail(rule, strFormat("needs %llu ticks, got %llu",
                             static_cast<unsigned long long>(
                                 spec.cyc(cycles)),
                             static_cast<unsigned long long>(
                                 now - earlier)));
    }
}

void
Ddr4Checker::feed(const DramCommand &c)
{
    Tick now = c.tick;

    switch (c.cmd) {
      case DramCmd::ACT: {
        CheckBank &b = banks[bankIdx(c)];
        if (b.open)
            fail("ACT-on-open", "bank already has an open row");
        if (b.everActed)
            needGap("tRC", b.lastAct, spec.tRC, now);
        if (b.everPre)
            needGap("tRP", b.lastPre, spec.tRP, now);
        if (actSeenGroup[groupIdx(c)]) {
            needGap("tRRD_L", lastActGroup[groupIdx(c)], spec.tRRD_L,
                    now);
        }
        if (actSeen && lastActAny != now)
            needGap("tRRD_S", lastActAny, spec.tRRD_S, now);
        if (now < refDoneAt)
            fail("tRFC", "ACT during refresh cycle");
        if (actWindow.size() >= 4)
            needGap("tFAW", actWindow.front(), spec.tFAW, now);
        actWindow.push_back(now);
        while (actWindow.size() > 4)
            actWindow.pop_front();
        b.open = true;
        b.row = c.row;
        b.lastAct = now;
        b.everActed = true;
        lastActGroup[groupIdx(c)] = now;
        actSeenGroup[groupIdx(c)] = true;
        lastActAny = now;
        actSeen = true;
        break;
      }
      case DramCmd::RD:
      case DramCmd::WR: {
        CheckBank &b = banks[bankIdx(c)];
        if (!b.open) {
            fail("CAS-on-closed", "no open row");
        } else if (b.row != c.row) {
            fail("CAS-row-mismatch",
                 strFormat("open row %llu, CAS row %llu",
                           static_cast<unsigned long long>(b.row),
                           static_cast<unsigned long long>(c.row)));
        }
        if (b.everActed)
            needGap("tRCD", b.lastAct, spec.tRCD, now);
        if (casSeenGroup[groupIdx(c)]) {
            needGap("tCCD_L", lastCasGroup[groupIdx(c)], spec.tCCD_L,
                    now);
        }
        if (casSeen)
            needGap("tCCD_S", lastCasAny, spec.tCCD_S, now);
        if (c.cmd == DramCmd::RD && wrSeen) {
            // tWTR measured from write data end to read command.
            Tick need = lastWrDataEndAny + spec.cyc(spec.tWTR_L);
            if (now < need && lastWrDataEndAny > 0)
                fail("tWTR", "read too soon after write data");
        }
        Tick data_end = now +
            spec.cyc(c.cmd == DramCmd::WR ? spec.tCWL : spec.tCL) +
            spec.burstTicks();
        if (c.cmd == DramCmd::WR) {
            b.lastWrDataEnd = data_end;
            b.everWr = true;
            lastWrDataEndAny = std::max(lastWrDataEndAny, data_end);
            wrSeen = true;
        } else {
            b.lastRd = now;
            b.everRd = true;
        }
        lastCasGroup[groupIdx(c)] = now;
        casSeenGroup[groupIdx(c)] = true;
        lastCasAny = now;
        casSeen = true;
        break;
      }
      case DramCmd::PRE: {
        CheckBank &b = banks[bankIdx(c)];
        if (!b.open) {
            fail("PRE-on-closed", "bank already precharged");
            break;
        }
        needGap("tRAS", b.lastAct, spec.tRAS, now);
        if (b.everRd)
            needGap("tRTP", b.lastRd, spec.tRTP, now);
        if (b.everWr && now < b.lastWrDataEnd + spec.cyc(spec.tWR))
            fail("tWR", "precharge before write recovery");
        b.open = false;
        b.lastPre = now;
        b.everPre = true;
        break;
      }
      case DramCmd::REF: {
        for (std::size_t bi = 0; bi < banks.size(); ++bi) {
            if (banks[bi].open) {
                fail("REF-open-bank",
                     strFormat("bank %zu open during refresh", bi));
            }
        }
        // Refresh cadence: the average interval must stay within
        // the JEDEC 9*tREFI postponement bound.
        if (spec.tREFI && refSeen &&
            now - lastRef > spec.cyc(9 * spec.tREFI)) {
            fail("tREFI", "refresh postponed past 9*tREFI");
        }
        lastRef = now;
        refSeen = true;
        refDoneAt = now + spec.cyc(spec.tRFC);
        break;
      }
    }

    ++numFed;
}

std::vector<Violation>
Ddr4Checker::check(const std::vector<DramCommand> &cmds)
{
    reset();
    for (const DramCommand &c : cmds)
        feed(c);
    std::vector<Violation> out = std::move(viols);
    viols.clear();
    return out;
}

void
Ddr4Checker::serialize(snapshot::Archive &ar)
{
    VANS_REQUIRE("ddr4-checker", 0, viols.empty(),
                 "snapshot of a checker holding %zu violations",
                 viols.size());
    ar.tag("ddr4-checker");
    ar.count("bank", banks.size());
    for (CheckBank &b : banks) {
        ar(b.open, b.row, b.lastAct, b.lastPre, b.lastRd,
           b.lastWrDataEnd, b.everActed, b.everPre, b.everRd,
           b.everWr);
    }
    ar.count("group", lastCasGroup.size());
    for (std::size_t g = 0; g < lastCasGroup.size(); ++g) {
        ar(lastCasGroup[g], casSeenGroup[g], lastActGroup[g],
           actSeenGroup[g]);
    }
    ar(lastCasAny, casSeen, lastActAny, actSeen, lastWrDataEndAny,
       wrSeen);
    ar.seq(actWindow);
    ar(refDoneAt, lastRef, refSeen, numFed);
}

} // namespace vans::dram
