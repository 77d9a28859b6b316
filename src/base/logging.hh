/**
 * @file
 * Status and error reporting helpers in the spirit of gem5's logging.hh.
 *
 * panic()  — an internal invariant was violated (a Mobius bug); aborts.
 * fatal()  — the user asked for something impossible (e.g. a model that
 *            cannot fit in GPU memory); throws FatalError so callers such
 *            as the OOM rows of Fig. 5 can catch and report it.
 * warn()   — something questionable happened but we can continue.
 */

#ifndef MOBIUS_BASE_LOGGING_HH
#define MOBIUS_BASE_LOGGING_HH

#include <cstdarg>
#include <stdexcept>
#include <string>

namespace mobius
{

/** Error thrown by fatal(); carries the formatted message. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** printf-style formatting into a std::string. */
std::string strfmt(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Abort with a message: an internal invariant was violated. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Throw FatalError: the requested configuration cannot run. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning to stderr and continue. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Globally silence warn(). */
void setQuiet(bool quiet);

/** @return true if warn() is currently silenced. */
bool quiet();

} // namespace mobius

#endif // MOBIUS_BASE_LOGGING_HH
