#include "json_dom.hh"

#include <cstdlib>
#include <string_view>

namespace memnet
{
namespace obs
{
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
    string(std::string *out)
    {
        const std::size_t n =
            parseString(std::string_view(p, end - p), out);
        if (n == 0)
            return fail("bad string literal");
        p += n;
        return true;
    }

    bool
    value(Value *out)
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
                if (!string(&k))
                    return false;
                skipWs();
                if (p >= end || *p != ':')
                    return fail("expected ':'");
                ++p;
                Value v;
                if (!value(&v))
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
                if (!value(&v))
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
            return string(&out->string);
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
    bool ok = ps.value(out);
    if (ok) {
        ps.skipWs();
        if (ps.p != ps.end)
            ok = ps.fail("trailing content after document");
    }
    if (!ok && err)
        *err = ps.err;
    return ok;
}

} // namespace json
} // namespace obs
} // namespace memnet
