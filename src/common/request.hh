/**
 * @file
 * Memory request descriptor shared by every memory model in the tree.
 *
 * Requests are pool-allocated (common/request_pool.hh): components
 * never own a Request, they hold a RequestHandle into the system's
 * RequestPool and dereference it on demand. The descriptor itself is
 * allocation-free -- the completion callback is an InplaceFunction
 * (typical captures stored inline) and the trace hop log is a raw
 * pointer into the pool's recycled per-slot ReqTrace slab.
 */

#ifndef VANS_COMMON_REQUEST_HH
#define VANS_COMMON_REQUEST_HH

#include <cstdint>

#include "common/inplace_function.hh"
#include "common/types.hh"

namespace vans::obs
{
struct ReqTrace;
} // namespace vans::obs

namespace vans
{

/** Kinds of memory operations a front end can issue. */
enum class MemOp : std::uint8_t
{
    Read,       ///< Regular (cacheable) load.
    ReadNT,     ///< Non-temporal load (bypasses CPU caches).
    Write,      ///< Regular store / cache writeback.
    WriteNT,    ///< Non-temporal store (bypasses CPU caches).
    Clwb,       ///< Cache-line writeback towards the ADR domain.
    Clflushopt, ///< Writeback + invalidate towards the ADR domain.
    Fence,      ///< Full fence: write-path quiescence through the
                ///< DIMM (mfence-and-drain semantics).
    Sfence,     ///< Store fence: orders prior flushes/NT stores at
                ///< the ADR boundary (WPQ acceptance), nothing more.
};

/** @return true for the read-kind operations. */
constexpr bool
isRead(MemOp op)
{
    return op == MemOp::Read || op == MemOp::ReadNT;
}

/** @return true for the write-kind operations (incl. the flushes). */
constexpr bool
isWrite(MemOp op)
{
    return op == MemOp::Write || op == MemOp::WriteNT ||
           op == MemOp::Clwb || op == MemOp::Clflushopt;
}

/** Human-readable name of a MemOp. */
const char *memOpName(MemOp op);

struct Request;

/** Completion callback type (move-only, small captures inline). */
using RequestCallback = InplaceFunction<void(Request &)>;

/**
 * One memory request. A request semantically completes when:
 *  - reads: data has returned to the issuer;
 *  - NT stores / clwb: the data reached the ADR persistence domain
 *    (accepted into the iMC write pending queue);
 *  - fences: all prior writes from this issuer are in the ADR domain
 *    and on-DIMM combining state is flushed.
 *
 * Ownership protocol: the issuer allocates a handle from the pool,
 * fills the descriptor in, and issues; ownership returns to the
 * issuer when onComplete fires. Only the issuer releases the handle
 * (inside or after its completion callback), and no component may
 * touch a request after calling complete() on it.
 */
struct Request
{
    std::uint64_t id = 0;         ///< Unique id (assigned by issuer).
    Addr addr = 0;                ///< Physical address.
    std::uint32_t size = 64;      ///< Bytes (<= cache line for timing).
    MemOp op = MemOp::Read;

    Tick issueTick = 0;           ///< When the front end issued it.
    Tick completeTick = 0;        ///< Set when onComplete fires.

    /**
     * Hint used by Pre-translation (paper section V-B): the request
     * was marked with mkpt, so the DIMM should return the TLB entry
     * for the pointer stored at this address along with the data.
     */
    bool preTranslate = false;

    /**
     * Lifecycle hop recording (common/trace_event.hh). Null unless
     * the servicing system runs with tracing enabled; points into the
     * pool's per-slot ReqTrace slab (attached at issue, recycled with
     * the slot), so the untraced path stays allocation-free.
     */
    obs::ReqTrace *trace = nullptr;

    /** Completion callback; may be empty. */
    RequestCallback onComplete;

    /** Fire the completion callback exactly once. */
    void
    complete(Tick when)
    {
        completeTick = when;
        if (onComplete) {
            auto cb = std::move(onComplete);
            onComplete = nullptr;
            // The callback may release this request back to its pool:
            // nothing below may touch *this after cb returns.
            cb(*this);
        }
    }

    /** Latency from issue to completion in ticks. */
    Tick latency() const { return completeTick - issueTick; }
};

} // namespace vans

#endif // VANS_COMMON_REQUEST_HH
