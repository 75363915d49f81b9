#include "obs/json.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "sim/log.hh"

namespace memnet
{
namespace obs
{

namespace
{

/** The escape jsonEscape() writes for @p c, or nullptr for none. */
const char *
shortEscape(unsigned char c)
{
    switch (c) {
      case '"':
        return "\\\"";
      case '\\':
        return "\\\\";
      case '\n':
        return "\\n";
      case '\r':
        return "\\r";
      case '\t':
        return "\\t";
      default:
        return nullptr;
    }
}

bool
needsEscape(unsigned char c)
{
    return c < 0x20 || c == '"' || c == '\\';
}

} // namespace

void
appendJsonEscaped(std::string &out, std::string_view s)
{
    // Each run of bytes that needs no escape goes in with one append.
    const char *run = s.data();
    const char *const end = run + s.size();
    for (const char *p = run; p != end; ++p) {
        const auto c = static_cast<unsigned char>(*p);
        if (!needsEscape(c))
            continue;
        out.append(run, p - run);
        run = p + 1;
        if (const char *e = shortEscape(c)) {
            out += e;
        } else {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        }
    }
    out.append(run, end - run);
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    appendJsonEscaped(out, s);
    return out;
}

void
JsonWriter::separate()
{
    if (pendingKey) {
        pendingKey = false;
        return; // the key already emitted the comma and ':' follows it
    }
    if (!hasMember.empty() && hasMember.back())
        os << ',';
}

void
JsonWriter::noteValue()
{
    if (!hasMember.empty())
        hasMember.back() = true;
}

void
JsonWriter::quoted(std::string_view s)
{
    // Keys and most values need no escaping: skip the temporary.
    if (std::none_of(s.begin(), s.end(),
                     [](unsigned char c) { return needsEscape(c); }))
        os << '"' << s << '"';
    else
        os << '"' << jsonEscape(s) << '"';
}

void
JsonWriter::beginObject()
{
    separate();
    os << '{';
    noteValue();
    hasMember.push_back(false);
}

void
JsonWriter::endObject()
{
    memnet_assert(!hasMember.empty(), "endObject without beginObject");
    hasMember.pop_back();
    os << '}';
}

void
JsonWriter::beginArray()
{
    separate();
    os << '[';
    noteValue();
    hasMember.push_back(false);
}

void
JsonWriter::endArray()
{
    memnet_assert(!hasMember.empty(), "endArray without beginArray");
    hasMember.pop_back();
    os << ']';
}

void
JsonWriter::key(std::string_view k)
{
    memnet_assert(!pendingKey, "two keys in a row");
    if (!hasMember.empty() && hasMember.back())
        os << ',';
    quoted(k);
    os << ':';
    pendingKey = true;
}

void
JsonWriter::value(double v)
{
    separate();
    if (!std::isfinite(v)) {
        os << "null";
    } else {
        // General format at precision 17 is "%.17g" byte for byte.
        char buf[40];
        const auto res = std::to_chars(buf, buf + sizeof buf, v,
                                       std::chars_format::general, 17);
        os.write(buf, res.ptr - buf);
    }
    noteValue();
}

void
JsonWriter::value(std::int64_t v)
{
    separate();
    char buf[24];
    os.write(buf, std::to_chars(buf, buf + sizeof buf, v).ptr - buf);
    noteValue();
}

void
JsonWriter::value(std::uint64_t v)
{
    separate();
    char buf[24];
    os.write(buf, std::to_chars(buf, buf + sizeof buf, v).ptr - buf);
    noteValue();
}

void
JsonWriter::value(bool v)
{
    separate();
    os << (v ? "true" : "false");
    noteValue();
}

void
JsonWriter::value(const std::string &v)
{
    separate();
    quoted(v);
    noteValue();
}

void
JsonWriter::value(const char *v)
{
    separate();
    quoted(v);
    noteValue();
}

// ---------------------------------------------------------------------
// String literals
// ---------------------------------------------------------------------

namespace json
{

namespace
{

/** Value of hex digit @p h, or -1. */
int
hexDigit(char h)
{
    if (h >= '0' && h <= '9')
        return h - '0';
    if (h >= 'a' && h <= 'f')
        return h - 'a' + 10;
    if (h >= 'A' && h <= 'F')
        return h - 'A' + 10;
    return -1;
}

/** Append code point @p v (< 0x10000) to @p out as UTF-8. */
void
appendUtf8(std::string &out, unsigned v)
{
    // Surrogate pairs are not recombined; the writers never emit them.
    if (v < 0x80) {
        out += static_cast<char>(v);
    } else if (v < 0x800) {
        out += static_cast<char>(0xC0 | (v >> 6));
        out += static_cast<char>(0x80 | (v & 0x3F));
    } else {
        out += static_cast<char>(0xE0 | (v >> 12));
        out += static_cast<char>(0x80 | ((v >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (v & 0x3F));
    }
}

} // namespace

std::size_t
parseString(std::string_view text, std::string *out)
{
    const char *p = text.data();
    const char *const end = p + text.size();
    if (p >= end || *p != '"')
        return 0;
    ++p;
    out->clear();
    while (p < end && *p != '"') {
        const char c = *p++;
        if (c != '\\') {
            *out += c;
            continue;
        }
        if (p >= end)
            return 0;
        switch (const char e = *p++) {
          case '"':
          case '\\':
          case '/':
            *out += e;
            break;
          case 'b':
            *out += '\b';
            break;
          case 'f':
            *out += '\f';
            break;
          case 'n':
            *out += '\n';
            break;
          case 'r':
            *out += '\r';
            break;
          case 't':
            *out += '\t';
            break;
          case 'u': {
            if (end - p < 4)
                return 0;
            unsigned v = 0;
            for (int i = 0; i < 4; ++i) {
                const int d = hexDigit(*p++);
                if (d < 0)
                    return 0;
                v = v << 4 | static_cast<unsigned>(d);
            }
            appendUtf8(*out, v);
            break;
          }
          default:
            return 0;
        }
    }
    if (p >= end)
        return 0; // unterminated
    return static_cast<std::size_t>(p + 1 - text.data());
}

} // namespace json

} // namespace obs
} // namespace memnet
