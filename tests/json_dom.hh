/**
 * @file
 * JSON DOM parser for the tests: reads back what the simulator's
 * writers produce (stats dumps, epoch JSONL, Chrome traces, journal
 * records, the CI schemas) so tests can check structure and values.
 *
 * A strict (no comments, no trailing commas) recursive-descent parser
 * over the JSON grammar, small enough to avoid any third-party
 * dependency. String literals go through obs::json::parseString, the
 * lexer the journal reader uses, so both agree on the escape rules.
 */

#ifndef MEMNET_TESTS_JSON_DOM_HH
#define MEMNET_TESTS_JSON_DOM_HH

#include <map>
#include <string>
#include <vector>

#include "obs/json.hh"

namespace memnet
{
namespace obs
{
namespace json
{

/** Parsed JSON value (DOM). */
struct Value
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Value> array;
    std::map<std::string, Value> object;

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }

    /** Object member lookup; nullptr when absent or not an object. */
    const Value *
    find(const std::string &k) const
    {
        if (kind != Kind::Object)
            return nullptr;
        auto it = object.find(k);
        return it == object.end() ? nullptr : &it->second;
    }
};

/**
 * Parse one JSON document.
 * @param text the document; trailing whitespace is allowed, any other
 *        trailing content is an error.
 * @param out parsed value (valid only on success).
 * @param err optional: receives a one-line error description.
 * @return true on success.
 */
bool parse(const std::string &text, Value *out, std::string *err = nullptr);

} // namespace json
} // namespace obs
} // namespace memnet

#endif // MEMNET_TESTS_JSON_DOM_HH
