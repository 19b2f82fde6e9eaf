#include "common/check.hh"

#include <cstdarg>
#include <cstdlib>

#include "common/logging.hh"

namespace vans::verify
{

std::string
Failure::str() const
{
    return strFormat("[%s] rule=%s tick=%llu: %s", subsystem.c_str(),
                     rule.c_str(),
                     static_cast<unsigned long long>(tick),
                     detail.c_str());
}

void
Monitor::report(Failure f)
{
    ++numReported;
    if (failFast) {
        panic("verification failure: %s", f.str().c_str());
    }
    fails.push_back(std::move(f));
}

std::size_t
Monitor::countRule(const std::string &rule) const
{
    std::size_t n = 0;
    for (const auto &f : fails) {
        if (f.rule == rule)
            ++n;
    }
    return n;
}

bool
envEnabled()
{
    // simlint-allow: written once on first use, read-only after.
    static const bool enabled = [] {
        const char *v = std::getenv("VANS_VERIFY");
        if (!v)
            return false;
        std::string s(v);
        return s == "1" || s == "on" || s == "yes" || s == "true";
    }();
    return enabled;
}

void
failCheck(const char *kind, const char *subsystem, const char *expr,
          const char *file, int line, Tick tick, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    char detail[512];
    vsnprintf(detail, sizeof(detail), fmt, args);
    va_end(args);

    panic("%s violated: [%s] `%s` at %s:%d tick=%llu: %s", kind,
          subsystem, expr, file, line,
          static_cast<unsigned long long>(tick), detail);
}

} // namespace vans::verify
