/**
 * @file
 * DDR4 protocol legality checker.
 *
 * Substitutes for the Micron Verilog verification model + Cadence
 * toolchain the paper uses (section IV-B): given the command trace a
 * controller emitted, verify that every inter-command timing and
 * state constraint holds. The checker is intentionally independent
 * of the controller implementation -- it re-derives bank state from
 * the command stream alone, so controller bugs cannot hide.
 *
 * Checked rules:
 *  - ACT only to a precharged bank; tRC since previous ACT (same
 *    bank); tRRD_S/L since previous ACT (other banks); tFAW over any
 *    four consecutive ACTs per rank; tRP since the closing PRE.
 *  - RD/WR only to an open row, tRCD after its ACT; tCCD_S/L since
 *    the previous CAS; reads respect tWTR_S/L after write data.
 *  - PRE respects tRAS after ACT, tRTP after RD, tWR after WR data.
 *  - REF only with all banks precharged; tRFC before the next ACT;
 *    average REF cadence within tREFI (9x margin, matching JEDEC
 *    postponement rules).
 *
 * Two usage modes share the same rule engine:
 *  - batch: check(trace) over a recorded command vector (tests);
 *  - online: feed(cmd) per command as the controller emits it --
 *    no trace storage, O(1) state -- which is how verify=on wires
 *    the checker into every live controller, including the on-DIMM
 *    DRAM inside each simulated NVRAM DIMM.
 */

#ifndef VANS_DRAM_CHECKER_HH
#define VANS_DRAM_CHECKER_HH

#include <deque>
#include <string>
#include <vector>

#include "dram/command.hh"
#include "dram/timing.hh"

namespace vans::snapshot
{
class Archive;
} // namespace vans::snapshot

namespace vans::dram
{

/** One detected protocol violation. */
struct Violation
{
    std::size_t cmdIndex;
    std::string rule;
    std::string detail;
};

/** Re-derives bank state from a command stream and checks legality. */
class Ddr4Checker
{
  public:
    Ddr4Checker(const DramTiming &timing, const DramGeometry &geometry);

    /** Check a full trace. @return all violations found. */
    std::vector<Violation> check(const std::vector<DramCommand> &cmds);

    /** Online mode: account one emitted command. */
    void feed(const DramCommand &cmd);

    /** Violations accumulated by feed() so far. */
    const std::vector<Violation> &violations() const { return viols; }

    /** Commands fed so far (batch or online). */
    std::uint64_t commandsChecked() const { return numFed; }

    /** Drop all per-stream state and findings. */
    void reset();

    /**
     * Serialize the re-derived protocol state so a restored
     * controller's checker picks up mid-stream (a fresh checker
     * would flag CAS commands to rows it never saw opened).
     * Requires a clean checker (no accumulated violations).
     */
    void serialize(snapshot::Archive &ar);

  private:
    struct CheckBank
    {
        bool open = false;
        std::uint64_t row = 0;
        Tick lastAct = 0;
        Tick lastPre = 0;
        Tick lastRd = 0;
        Tick lastWrDataEnd = 0;
        bool everActed = false;
        bool everPre = false;
        bool everRd = false;
        bool everWr = false;
    };

    unsigned bankIdx(const DramCommand &c) const;
    unsigned groupIdx(const DramCommand &c) const;
    void fail(const char *rule, std::string detail);
    void needGap(const char *rule, Tick earlier, unsigned cycles,
                 Tick now);

    const DramTiming spec;
    const DramGeometry geom;

    // Re-derived protocol state (reset() restores all of it).
    std::vector<CheckBank> banks;
    std::vector<Tick> lastCasGroup;
    std::vector<bool> casSeenGroup;
    std::vector<Tick> lastActGroup;
    std::vector<bool> actSeenGroup;
    Tick lastCasAny = 0;
    bool casSeen = false;
    Tick lastActAny = 0;
    bool actSeen = false;
    Tick lastWrDataEndAny = 0;
    bool wrSeen = false;
    std::deque<Tick> actWindow;
    Tick refDoneAt = 0;
    Tick lastRef = 0;
    bool refSeen = false;

    std::uint64_t numFed = 0;
    std::vector<Violation> viols;
};

} // namespace vans::dram

#endif // VANS_DRAM_CHECKER_HH
