/**
 * @file
 * Contract framework: the always-on / debug-tier invariant layer the
 * rest of the verification stack builds on.
 *
 * Three macro tiers (all report through the same structured path):
 *  - VANS_REQUIRE   - precondition on a caller (e.g. "acceptWrite only
 *                     after canAcceptWrite"). Always compiled in; the
 *                     predicate must be O(1).
 *  - VANS_INVARIANT - internal state consistency at a commit point
 *                     (e.g. "occupancy never exceeds capacity").
 *                     Always compiled in; O(1) predicates only.
 *  - VANS_AUDIT     - expensive re-derivation of state (e.g. "the
 *                     cached entry count equals the recount over the
 *                     map"). Compiled out in Release builds; enabled
 *                     whenever VANS_ENABLE_AUDITS is defined.
 *
 * A check is its test and nothing else: it keeps no per-site state,
 * so a passing check writes nothing that worlds on other sweep
 * threads share. A shared write per check, such as a hit counter,
 * would make those threads contend on every evaluation. Death tests
 * and the checkers' negative tests show that the failure paths work.
 *
 * Failures are structured (subsystem, rule, tick, detail) and abort
 * via panic() by default -- a modeling bug must kill the run before
 * it corrupts a figure. Checkers that accumulate findings for
 * inspection (negative tests, reports) route them through a Monitor
 * with fail-fast disabled instead.
 */

#ifndef VANS_COMMON_CHECK_HH
#define VANS_COMMON_CHECK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace vans::verify
{

/** One structured contract-violation report. */
struct Failure
{
    std::string subsystem; ///< Component instance ("vans.dimm0.lsq").
    std::string rule;      ///< Stable rule name ("lsq-capacity").
    std::string detail;    ///< Human-readable specifics.
    Tick tick = 0;         ///< Simulated time of the violation.

    /** Render as a one-line report. */
    std::string str() const;
};

/**
 * Failure sink shared by the checkers of one simulated system.
 * Fail-fast monitors panic on the first report (the verify=on run
 * mode); accumulating monitors collect for later inspection (the
 * negative-test mode).
 */
class Monitor
{
  public:
    explicit Monitor(bool fail_fast = true) : failFast(fail_fast) {}

    /** Record @p f; panics when fail-fast. */
    void report(Failure f);

    const std::vector<Failure> &failures() const { return fails; }
    bool clean() const { return fails.empty(); }
    std::uint64_t reported() const { return numReported; }
    void clear() { fails.clear(); }

    /** Count of recorded failures matching @p rule. */
    std::size_t countRule(const std::string &rule) const;

  private:
    bool failFast;
    std::vector<Failure> fails;
    std::uint64_t numReported = 0;
};

/**
 * True when the VANS_VERIFY environment variable requests verified
 * runs (1/on/yes/true). Read once and cached; lets CI flip the whole
 * test and bench suite into checked mode without touching call
 * sites. NvramConfig::verify turns it on for one system.
 */
bool envEnabled();

/**
 * Report a failed check -- "<kind> violated: [<subsystem>] `<expr>`
 * at <file>:<line> tick=<tick>: <detail>" -- and abort via panic().
 * Out of line and cold, so a passing check costs only its test.
 */
[[noreturn]] void failCheck(const char *kind, const char *subsystem,
                            const char *expr, const char *file,
                            int line, Tick tick, const char *fmt, ...)
    __attribute__((cold, format(printf, 7, 8)));

} // namespace vans::verify

/**
 * Contract macros. @p subsys is a string literal naming the
 * component, @p tick the current simulated time (evaluated only on
 * failure), @p cond the predicate, and the remainder a printf-style
 * detail message. Example:
 *
 *   VANS_REQUIRE("lsq", eventq.curTick(), numEntries < cfg.lsqEntries,
 *                "acceptWrite without room (%zu entries)", numEntries);
 */
#define VANS_CHECK_IMPL(kind, subsys, tick, cond, ...)                 \
    do {                                                               \
        if (__builtin_expect(!(cond), 0)) {                            \
            ::vans::verify::failCheck(kind, subsys, #cond, __FILE__,   \
                                      __LINE__, tick, __VA_ARGS__);    \
        }                                                              \
    } while (0)

#define VANS_REQUIRE(subsys, tick, cond, ...)                          \
    VANS_CHECK_IMPL("require", subsys, tick, cond, __VA_ARGS__)

#define VANS_INVARIANT(subsys, tick, cond, ...)                        \
    VANS_CHECK_IMPL("invariant", subsys, tick, cond, __VA_ARGS__)

#ifdef VANS_ENABLE_AUDITS
#define VANS_AUDIT(subsys, tick, cond, ...)                            \
    VANS_CHECK_IMPL("audit", subsys, tick, cond, __VA_ARGS__)
#else
#define VANS_AUDIT(subsys, tick, cond, ...) ((void)0)
#endif

#endif // VANS_COMMON_CHECK_HH
