#include "base/json.hh"

#include <cstdio>
#include <cstdlib>

namespace mobius::json
{

bool
JsonValue::has(const std::string &key) const
{
    return find(key) != nullptr;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : members) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    if (kind != Kind::Object)
        throw JsonError("json: at(\"" + key + "\") on a non-object");
    if (const JsonValue *v = find(key))
        return *v;
    throw JsonError("json: no member \"" + key + "\"");
}

const JsonValue &
JsonValue::operator[](std::size_t i) const
{
    if (kind != Kind::Array || i >= array.size())
        throw JsonError("json: bad array index");
    return array[i];
}

double
JsonValue::numberOr(const std::string &key, double fallback) const
{
    const JsonValue *v = find(key);
    return v && v->isNumber() ? v->number : fallback;
}

std::string
JsonValue::stringOr(const std::string &key,
                    const std::string &fallback) const
{
    const JsonValue *v = find(key);
    return v && v->isString() ? v->string : fallback;
}

namespace
{

/** Recursive-descent parser over one input string. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = value();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw JsonError("json: " + what + " at byte " +
                        std::to_string(pos_));
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consume(const std::string &word)
    {
        if (text_.compare(pos_, word.size(), word) != 0)
            return false;
        pos_ += word.size();
        return true;
    }

    JsonValue
    value()
    {
        skipWs();
        char c = peek();
        if (c == '{')
            return object();
        if (c == '[')
            return arrayValue();
        if (c == '"') {
            JsonValue v;
            v.kind = JsonValue::Kind::String;
            v.string = stringLiteral();
            return v;
        }
        if (consume("true")) {
            JsonValue v;
            v.kind = JsonValue::Kind::Bool;
            v.boolean = true;
            return v;
        }
        if (consume("false")) {
            JsonValue v;
            v.kind = JsonValue::Kind::Bool;
            v.boolean = false;
            return v;
        }
        if (consume("null"))
            return JsonValue{};
        if (c == '-' || (c >= '0' && c <= '9'))
            return numberValue();
        fail("unexpected character");
    }

    JsonValue
    object()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        expect('{');
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            skipWs();
            std::string key = stringLiteral();
            skipWs();
            expect(':');
            v.members.emplace_back(std::move(key), value());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    arrayValue()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        expect('[');
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.array.push_back(value());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string
    stringLiteral()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': out += unicodeEscape(); break;
              default: fail("bad escape");
            }
        }
    }

    std::string
    unicodeEscape()
    {
        if (pos_ + 4 > text_.size())
            fail("truncated \\u escape");
        unsigned cp = 0;
        for (int i = 0; i < 4; ++i) {
            char c = text_[pos_++];
            cp <<= 4;
            if (c >= '0' && c <= '9')
                cp |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                cp |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                cp |= static_cast<unsigned>(c - 'A' + 10);
            else
                fail("bad \\u digit");
        }
        // Encode the BMP code point as UTF-8 (surrogate pairs are
        // not recombined; the exporters never emit them).
        std::string out;
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
        return out;
    }

    JsonValue
    numberValue()
    {
        const char *begin = text_.c_str() + pos_;
        char *end = nullptr;
        double d = std::strtod(begin, &end);
        if (end == begin)
            fail("bad number");
        pos_ += static_cast<std::size_t>(end - begin);
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.number = d;
        return v;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace

JsonValue
parse(const std::string &text)
{
    return Parser(text).parse();
}

std::string
escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace mobius::json
