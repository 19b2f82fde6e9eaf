/**
 * @file
 * DRAM command stream records, consumed by the protocol checker and
 * the optional command tracer.
 */

#ifndef VANS_DRAM_COMMAND_HH
#define VANS_DRAM_COMMAND_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace vans::dram
{

/** DRAM bus command types (RD/WR carry auto-precharge variants). */
enum class DramCmd : std::uint8_t
{
    ACT,
    RD,
    WR,
    PRE,
    REF,
};

/** Name of a DramCmd. */
const char *dramCmdName(DramCmd cmd);

/** One issued command with full bank coordinates. */
struct DramCommand
{
    Tick tick = 0;
    DramCmd cmd = DramCmd::ACT;
    unsigned rank = 0;
    unsigned bankGroup = 0;
    unsigned bank = 0;
    std::uint64_t row = 0;
    std::uint64_t column = 0;

    std::string str() const;
};

/** Append-only command trace. */
class CommandTrace
{
  public:
    void
    record(const DramCommand &cmd)
    {
        if (enabled)
            cmds.push_back(cmd);
    }

    void setEnabled(bool on) { enabled = on; }
    const std::vector<DramCommand> &commands() const { return cmds; }
    void clear() { cmds.clear(); }

  private:
    bool enabled = false;
    std::vector<DramCommand> cmds;
};

} // namespace vans::dram

#endif // VANS_DRAM_COMMAND_HH
