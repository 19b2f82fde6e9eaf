/**
 * @file
 * Instruction-trace format shared by the CPU core, the workload
 * generators, and the file-based replay tooling (the equivalent of
 * the paper's "trace mode", section IV-C).
 */

#ifndef VANS_TRACE_TRACE_HH
#define VANS_TRACE_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace vans::trace
{

/** Instruction kinds the core model understands. */
enum class InstType : std::uint8_t
{
    NonMem,     ///< A bundle of count non-memory instructions.
    Load,
    Store,
    StoreNT,
    Clwb,
    Clflushopt, ///< Flush + invalidate (persistence path).
    Fence,
    Sfence,     ///< Store fence: ADR ordering only.
    Mkpt,       ///< Pre-translation hint (paper section V-B).
};

/** One trace record. */
struct TraceInst
{
    InstType type = InstType::NonMem;
    Addr addr = 0;
    std::uint32_t count = 1;      ///< NonMem bundle size.
    bool dependsOnPrev = false;   ///< Pointer-chasing dependency.
};

/** Pull-based instruction source. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;
    /** @return false at end of trace. */
    virtual bool next(TraceInst &out) = 0;
};

/** Replays a pre-built vector. */
class VectorTraceSource : public TraceSource
{
  public:
    explicit VectorTraceSource(std::vector<TraceInst> insts)
        : data(std::move(insts))
    {}

    bool
    next(TraceInst &out) override
    {
        if (pos >= data.size())
            return false;
        out = data[pos++];
        return true;
    }

  private:
    std::vector<TraceInst> data;
    std::size_t pos = 0;
};

/** Write a trace as text ("L <addr>", "S <addr>", "N <count>"...). */
void writeTraceFile(const std::string &path,
                    const std::vector<TraceInst> &insts);

/** Read a text trace written by writeTraceFile. */
std::vector<TraceInst> readTraceFile(const std::string &path);

/** One-letter mnemonic for a type. */
char instTypeChar(InstType t);

} // namespace vans::trace

#endif // VANS_TRACE_TRACE_HH
