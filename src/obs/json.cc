#include "obs/json.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

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
    for (unsigned char c : s) {
        if (!needsEscape(c)) {
            out += static_cast<char>(c);
        } else if (const char *e = shortEscape(c)) {
            out += e;
        } else {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        }
    }
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

void
JsonWriter::null()
{
    separate();
    os << "null";
    noteValue();
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

namespace json
{

namespace
{

struct Parser
{
    const char *p;
    const char *end;
    std::string err;

    bool
    fail(const std::string &msg)
    {
        if (err.empty())
            err = msg;
        return false;
    }

    void
    skipWs()
    {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' ||
                           *p == '\r')) {
            ++p;
        }
    }

    bool
    literal(const char *lit)
    {
        const char *q = lit;
        const char *s = p;
        while (*q) {
            if (s >= end || *s != *q)
                return fail(std::string("expected '") + lit + "'");
            ++s;
            ++q;
        }
        p = s;
        return true;
    }

    bool
    parseString(std::string *out)
    {
        if (p >= end || *p != '"')
            return fail("expected string");
        ++p;
        out->clear();
        while (p < end && *p != '"') {
            char c = *p++;
            if (c != '\\') {
                *out += c;
                continue;
            }
            if (p >= end)
                return fail("truncated escape");
            const char e = *p++;
            switch (e) {
              case '"':
                *out += '"';
                break;
              case '\\':
                *out += '\\';
                break;
              case '/':
                *out += '/';
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
                    return fail("truncated \\u escape");
                unsigned v = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = *p++;
                    v <<= 4;
                    if (h >= '0' && h <= '9')
                        v |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        v |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        v |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                // Encode as UTF-8 (surrogate pairs are not recombined;
                // the writers never emit them).
                if (v < 0x80) {
                    *out += static_cast<char>(v);
                } else if (v < 0x800) {
                    *out += static_cast<char>(0xC0 | (v >> 6));
                    *out += static_cast<char>(0x80 | (v & 0x3F));
                } else {
                    *out += static_cast<char>(0xE0 | (v >> 12));
                    *out += static_cast<char>(0x80 | ((v >> 6) & 0x3F));
                    *out += static_cast<char>(0x80 | (v & 0x3F));
                }
                break;
              }
              default:
                return fail("bad escape");
            }
        }
        if (p >= end)
            return fail("unterminated string");
        ++p; // closing quote
        return true;
    }

    bool
    parseValue(Value *out)
    {
        skipWs();
        if (p >= end)
            return fail("unexpected end of input");
        switch (*p) {
          case '{': {
            ++p;
            out->kind = Value::Kind::Object;
            skipWs();
            if (p < end && *p == '}') {
                ++p;
                return true;
            }
            while (true) {
                skipWs();
                std::string k;
                if (!parseString(&k))
                    return false;
                skipWs();
                if (p >= end || *p != ':')
                    return fail("expected ':'");
                ++p;
                Value v;
                if (!parseValue(&v))
                    return false;
                out->object.emplace(std::move(k), std::move(v));
                skipWs();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                if (p < end && *p == '}') {
                    ++p;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
          }
          case '[': {
            ++p;
            out->kind = Value::Kind::Array;
            skipWs();
            if (p < end && *p == ']') {
                ++p;
                return true;
            }
            while (true) {
                Value v;
                if (!parseValue(&v))
                    return false;
                out->array.push_back(std::move(v));
                skipWs();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                if (p < end && *p == ']') {
                    ++p;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
          }
          case '"':
            out->kind = Value::Kind::String;
            return parseString(&out->string);
          case 't':
            out->kind = Value::Kind::Bool;
            out->boolean = true;
            return literal("true");
          case 'f':
            out->kind = Value::Kind::Bool;
            out->boolean = false;
            return literal("false");
          case 'n':
            out->kind = Value::Kind::Null;
            return literal("null");
          default: {
            // Number.
            char *num_end = nullptr;
            const double v = std::strtod(p, &num_end);
            if (num_end == p || num_end > end)
                return fail("bad number");
            out->kind = Value::Kind::Number;
            out->number = v;
            p = num_end;
            return true;
          }
        }
    }
};

} // namespace

bool
parse(const std::string &text, Value *out, std::string *err)
{
    Parser ps{text.data(), text.data() + text.size(), {}};
    *out = Value{};
    bool ok = ps.parseValue(out);
    if (ok) {
        ps.skipWs();
        if (ps.p != ps.end)
            ok = ps.fail("trailing content after document");
    }
    if (!ok && err)
        *err = ps.err;
    return ok;
}

std::size_t
parseString(std::string_view text, std::string *out)
{
    Parser ps{text.data(), text.data() + text.size(), {}};
    return ps.parseString(out) ? static_cast<std::size_t>(ps.p - text.data())
                               : 0;
}

} // namespace json

} // namespace obs
} // namespace memnet
