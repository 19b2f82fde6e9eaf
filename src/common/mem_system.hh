/**
 * @file
 * The abstract memory-system interface every timing model implements.
 *
 * LENS microbenchmarks, the CPU model, and the bench harnesses all
 * drive memory through this interface, which is exactly the property
 * that lets LENS profile *any* backend: the real paper profiles Optane
 * hardware; here the same prober logic profiles VANS and the baseline
 * models through identical request streams.
 */

#ifndef VANS_COMMON_MEM_SYSTEM_HH
#define VANS_COMMON_MEM_SYSTEM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/check.hh"
#include "common/event_queue.hh"
#include "common/request.hh"
#include "common/request_pool.hh"

namespace vans::snapshot
{
class Archive;
} // namespace vans::snapshot

namespace vans::obs
{
class TraceRecorder;
} // namespace vans::obs

namespace vans::persist
{
class MediaImage;
class PersistenceChecker;
} // namespace vans::persist

namespace vans
{

class MetricsRegistry;

/** Abstract timing memory system. */
// simlint-allow(snapshotcover: the base-class serialize is an
// aborting stub for systems without snapshot support; concrete
// systems serialize lastId through the lastRequestId accessor -- see
// VansSystem::serialize)
class MemorySystem
{
  public:
    explicit MemorySystem(EventQueue &eq) : eventq(eq) {}
    virtual ~MemorySystem() = default;

    MemorySystem(const MemorySystem &) = delete;
    MemorySystem &operator=(const MemorySystem &) = delete;

    /**
     * Issue a request previously obtained from makeRequest(). The
     * system always accepts it (front-end admission is unbounded);
     * all contention and queueing shows up in the completion time
     * delivered through the request's onComplete. Ownership returns
     * to the issuer when that callback fires; the issuer releases
     * the handle (inside or after the callback), never the model.
     */
    virtual void issue(RequestHandle h) = 0;

    /** The pool every request of this system lives in. */
    RequestPool &pool() { return reqPool; }

    /** Allocate and fill a request descriptor in this system's pool. */
    RequestHandle
    makeRequest(Addr addr, MemOp op,
                std::uint32_t size = cacheLineSize)
    {
        RequestHandle h = reqPool.alloc();
        Request &r = reqPool.get(h);
        r.addr = addr;
        r.op = op;
        r.size = size;
        return h;
    }

    /** Dereference a handle of this system's pool. */
    Request &request(RequestHandle h) { return reqPool.get(h); }

    /** Short model name used in reports. */
    virtual std::string name() const = 0;

    /** Total capacity in bytes (for address-range checks). */
    virtual std::uint64_t capacity() const = 0;

    /** The event queue this system is clocked by. */
    EventQueue &eventQueue() { return eventq; }

    /** Assign a fresh request id. */
    std::uint64_t nextRequestId() { return ++lastId; }

    /**
     * The attached trace recorder, or nullptr when this system runs
     * untraced (tracing not asked for, or the model has no
     * instrumentation). Probers and drivers use this to add
     * their own tracks to the same recording.
     */
    virtual obs::TraceRecorder *tracer() { return nullptr; }

    /**
     * Register every StatGroup of this system with @p reg for
     * machine-readable export. Default: nothing to report.
     */
    virtual void metricsInto(MetricsRegistry &reg) { (void)reg; }

    /**
     * True when no request is in flight anywhere in the model (the
     * snapshot precondition). Systems without snapshot support keep
     * the trivial default.
     */
    virtual bool quiescent() const { return true; }

    /**
     * Run the kernel until quiescent(): the one sanctioned idle-out
     * loop, shared by the LENS driver, snapshot capture and the
     * crash harness. Never key a drain on event-queue emptiness --
     * any world whose DRAM path was touched re-arms its tREFI
     * refresh wakeup forever, so the queue of an idle world is
     * never empty and an emptiness-keyed loop spins until the end
     * of time. @p maxEvents bounds the wait: exceeding it (or the
     * kernel running dry short of quiescence) is a model bug and
     * fails loudly.
     */
    void
    drain(std::uint64_t maxEvents = 50'000'000)
    {
        std::uint64_t steps = 0;
        while (!quiescent()) {
            VANS_REQUIRE("mem-system", eventq.curTick(),
                         steps < maxEvents,
                         "%s not quiescent after %llu events",
                         name().c_str(),
                         static_cast<unsigned long long>(maxEvents));
            bool advanced = eventq.step();
            VANS_REQUIRE("mem-system", eventq.curTick(), advanced,
                         "kernel drained but %s never became "
                         "quiescent",
                         name().c_str());
            ++steps;
        }
    }

    /** Capture the full warm state into @p ar, or restore it from
     *  there (common/snapshot.hh). A system with snapshot support
     *  overrides this and quiescent(); the base fails, naming the
     *  system. */
    virtual void
    serialize(snapshot::Archive &ar)
    {
        (void)ar;
        VANS_REQUIRE("mem-system", eventq.curTick(), false,
                     "snapshot of a system without snapshot "
                     "support (%s)",
                     name().c_str());
    }

    // ---- Persistence domain (common/crash.hh) ----------------------

    /** True when the model exposes an ADR durability boundary (the
     *  crash harness refuses systems that do not). */
    virtual bool persistSupported() const { return false; }

    /**
     * Start tracking the per-line durable versions the crash harness
     * captures on powerFail(). Off by default: the tracking map is
     * the one piece of the persistence model that allocates, and the
     * steady-state request path stays allocation-free without it.
     */
    virtual void
    enablePersistTracking()
    {
        VANS_REQUIRE("mem-system", eventq.curTick(), false,
                     "enablePersistTracking on a system without "
                     "persist support (%s)",
                     name().c_str());
    }

    /**
     * Cut power now: drain only the ADR domain (WPQ contents are
     * guaranteed to reach media) into @p out and mark this world
     * failed. In-flight requests never complete; a failed world
     * accepts no further issues and skips its teardown audits. May
     * only be called once, with tracking enabled.
     */
    virtual void
    powerFail(persist::MediaImage &out)
    {
        (void)out;
        VANS_REQUIRE("mem-system", eventq.curTick(), false,
                     "powerFail on a system without persist support "
                     "(%s)",
                     name().c_str());
    }

    /** True once powerFail() ran on this world. */
    virtual bool powerFailed() const { return false; }

    /**
     * Seed a fresh (never-issued-to) world's durable media state
     * from a captured image -- the restart half of a crash/recovery
     * cycle. Implies enablePersistTracking().
     */
    virtual void
    loadDurableImage(const persist::MediaImage &image)
    {
        (void)image;
        VANS_REQUIRE("mem-system", eventq.curTick(), false,
                     "loadDurableImage on a system without persist "
                     "support (%s)",
                     name().c_str());
    }

    /**
     * The persistence-discipline checker of this system's verifier,
     * or nullptr when the system runs unverified (or has none). The
     * crash harness feeds cache-level events through this.
     */
    virtual persist::PersistenceChecker *
    persistenceChecker()
    {
        return nullptr;
    }

  protected:
    EventQueue &eventq;

    /**
     * Request storage for this system. Systems with snapshot support
     * serialize it (the free-list order pins the handle sequence a
     * restored world hands out); see VansSystem::serialize.
     */
    RequestPool reqPool;

    /** The request-id counter, for serialize. */
    std::uint64_t &lastRequestId() { return lastId; }

  private:
    std::uint64_t lastId = 0;
};

/**
 * Builds a fresh memory system clocked by @p eq. Parallel sweeps
 * clone one simulated machine per sweep point through a factory,
 * so no simulated state crosses threads.
 */
using SystemFactory =
    std::function<std::unique_ptr<MemorySystem>(EventQueue &)>;

} // namespace vans

#endif // VANS_COMMON_MEM_SYSTEM_HH
