/**
 * @file
 * Status and error reporting, following the gem5 idiom.
 *
 * panic()  - an internal simulator invariant was violated (a bug in
 *            this code base); aborts so a debugger/core dump can catch
 *            the state.
 * fatal()  - the simulation cannot continue because of a user error
 *            (bad configuration, invalid arguments); exits with code 1.
 * warn()   - something works well enough but might explain odd results.
 * inform() - normal operating status messages.
 */

#ifndef VANS_COMMON_LOGGING_HH
#define VANS_COMMON_LOGGING_HH

#include <cstdarg>
#include <string>

namespace vans
{

/** Printf-style formatting into a std::string. */
std::string strFormat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Suppress warn()/inform() output (used by tests and sweeps). */
void setQuiet(bool quiet);

} // namespace vans

#endif // VANS_COMMON_LOGGING_HH
