#include "base/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace mobius
{

namespace
{

bool quietFlag = false;

std::string
vstrfmt(const char *fmt, va_list ap)
{
    // Most results are short (span names, labels): format once into
    // a stack buffer. Only a longer result is formatted a second
    // time, straight into its string.
    char small[256];
    va_list ap_copy;
    va_copy(ap_copy, ap);
    int len = std::vsnprintf(small, sizeof(small), fmt, ap_copy);
    va_end(ap_copy);
    if (len < 0)
        return std::string(fmt);
    if (static_cast<size_t>(len) < sizeof(small))
        return std::string(small, static_cast<size_t>(len));
    std::string s(static_cast<size_t>(len), '\0');
    std::vsnprintf(s.data(), s.size() + 1, fmt, ap);
    return s;
}

} // namespace

std::string
strfmt(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    return s;
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s\n", s.c_str());
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    throw FatalError(s);
}

void
warn(const char *fmt, ...)
{
    if (quietFlag)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "warn: %s\n", s.c_str());
}

void
inform(const char *fmt, ...)
{
    if (quietFlag)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    std::fprintf(stdout, "info: %s\n", s.c_str());
}

void
setQuiet(bool quiet)
{
    quietFlag = quiet;
}

bool
quiet()
{
    return quietFlag;
}

} // namespace mobius
