/**
 * @file
 * Minimal JSON support for the observability layer.
 *
 * JsonWriter is a streaming emitter used by the epoch recorder and the
 * Chrome trace's args (bench --json output and stats dumps have their
 * own writer in memnet/journal.cc); it never builds a DOM, so
 * arbitrarily long time-series stream straight to disk.
 * json::parseString is the one JSON string-literal lexer: the journal
 * reader uses it, and so does the tests' DOM parser
 * (tests/json_dom.hh), so no second copy of the escape rules exists.
 */

#ifndef MEMNET_OBS_JSON_HH
#define MEMNET_OBS_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace memnet
{
namespace obs
{

/** Escape @p s for inclusion in a JSON string literal (no quotes). */
std::string jsonEscape(std::string_view s);

/** Append @p s to @p out escaped exactly as jsonEscape() spells it. */
void appendJsonEscaped(std::string &out, std::string_view s);

/**
 * Streaming JSON emitter. The caller provides the structure via
 * begin/end calls; the writer tracks nesting to place commas. Doubles
 * are written with round-trip precision (the bytes of "%.17g");
 * non-finite values become null (JSON has no NaN/Inf).
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os(os) {}

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Emit an object key; the next value/begin call is its value. */
    void key(std::string_view k);

    void value(double v);
    void value(std::int64_t v);
    void value(std::uint64_t v);
    void value(bool v);
    void value(const std::string &v);
    void value(const char *v);
    void null();

    /** key(k) + value(v) in one call. */
    template <typename T>
    void
    field(std::string_view k, T v)
    {
        key(k);
        value(v);
    }

  private:
    /** Emit a comma if the current container already has a member. */
    void separate();
    /** A value was emitted into the current container. */
    void noteValue();
    /** Write @p s as a quoted JSON string. */
    void quoted(std::string_view s);

    std::ostream &os;
    /** One entry per open container: has it seen a member yet? */
    std::vector<bool> hasMember;
    /** A key was just written; the next value completes the pair. */
    bool pendingKey = false;
};

namespace json
{

/**
 * Parse the JSON string literal at the start of @p text into @p out.
 * @return the literal's length in bytes, quotes included; 0 on error.
 */
std::size_t parseString(std::string_view text, std::string *out);

} // namespace json

} // namespace obs
} // namespace memnet

#endif // MEMNET_OBS_JSON_HH
