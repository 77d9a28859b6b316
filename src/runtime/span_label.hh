/**
 * @file
 * Span labels built without printf.
 *
 * Executors label every transfer and kernel they issue ("F3,1",
 * "ag12:0>3", "b7.shard", ...), so label building sits on the
 * per-event path. spanLabel() appends its parts the way the matching
 * strfmt() format prints them — an int as `%d`, a char as `%c`, a C
 * string as `%s` — byte for byte, without parsing a format.
 */

#ifndef MOBIUS_RUNTIME_SPAN_LABEL_HH
#define MOBIUS_RUNTIME_SPAN_LABEL_HH

#include <string>

namespace mobius
{

namespace detail
{

inline void
appendLabelPart(std::string &s, const char *text)
{
    s += text;
}

inline void
appendLabelPart(std::string &s, char c)
{
    s += c;
}

inline void
appendLabelPart(std::string &s, int value)
{
    s += std::to_string(value);
}

} // namespace detail

/**
 * @return @p parts concatenated: spanLabel("ag", 3, ':', 0, '>', 2)
 *         is strfmt("ag%d:%d>%d", 3, 0, 2), i.e. "ag3:0>2".
 */
template <typename... Parts>
std::string
spanLabel(const Parts &...parts)
{
    std::string s;
    (detail::appendLabelPart(s, parts), ...);
    return s;
}

} // namespace mobius

#endif // MOBIUS_RUNTIME_SPAN_LABEL_HH
