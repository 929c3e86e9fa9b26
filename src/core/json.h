/**
 * @file
 * Minimal JSON value, parser, and writer (no external dependencies),
 * shared by every module that reads or writes JSON: the srDFG
 * serializer, the service protocol, telemetry, profiles, and the bench
 * and DSE artifacts.
 *
 * Parsing and emission both go through std::from_chars/std::to_chars,
 * so neither consults the global locale (DESIGN.md §"Locale"): "1.5"
 * parses and prints as "1.5" even under a comma-decimal locale.
 */
#ifndef POLYMATH_CORE_JSON_H_
#define POLYMATH_CORE_JSON_H_

#include <charconv>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

namespace polymath::json {

struct Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

/** One JSON value; accessors throw UserError on a type mismatch. */
struct Value
{
    std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
        data = nullptr;

    bool isNull() const
    {
        return std::holds_alternative<std::nullptr_t>(data);
    }
    double num() const;
    int64_t asInt() const { return static_cast<int64_t>(num()); }
    const std::string &str() const;
    const Array &arr() const;
    const Object &obj() const;

    /** Member lookup; @throws UserError when @p key is absent. */
    const Value &at(const std::string &key) const;

    /** True when this is an object containing @p key. */
    bool has(const std::string &key) const;
};

/**
 * Deepest array/object nesting parse() accepts. The parser recurses once
 * per level, so without a bound one hostile line of brackets on the pmcd
 * socket overflows the stack. Every document the stack writes nests far
 * less: a request or reply 3 levels, an srDFG two per index-expression
 * level.
 */
inline constexpr int kMaxDepth = 512;

/** Parses @p text as one JSON document. @throws UserError on malformed
 *  input (including trailing characters) and on nesting deeper than
 *  kMaxDepth, with the byte offset where it went wrong. */
Value parse(const std::string &text);

/**
 * Appends @p value to @p out as a locale-independent JSON number.
 * to_chars emits the shortest decimal string that round-trips to the
 * same bits (so -0.0, subnormals and 1e308 all survive), where printf
 * %g goes through the C locale and can emit comma decimals. Infinities
 * and NaN are not representable as JSON numbers, so they travel as the
 * strings "inf"/"-inf"/"nan".
 */
void appendNumber(std::string &out, double value);

/** Inverse of appendNumber: a plain number or one of the non-finite
 *  marker strings. */
double numberFromJson(const Value &v);

/**
 * Appends @p s to @p out as a JSON string literal: '"' and '\\' are
 * backslash-escaped, and so is every control character (\n \t \r by
 * name, the rest as \u00XX), so a quoted string never holds a raw
 * newline, the invariant the JSON-line service protocol's framing
 * depends on (docs/SERVICE.md). Other bytes, UTF-8 included, pass
 * through; runs of them are copied in bulk.
 */
void appendQuoted(std::string &out, std::string_view s);

/** appendQuoted() into a fresh string. */
std::string quote(std::string_view s);

/**
 * The one writer of compact JSON: every document the stack emits goes
 * through it, except BenchArtifact's one-metric-per-line layout. It
 * appends to a buffer the caller owns (so callers can reserve() or
 * append several documents to one buffer) and places the commas and
 * colons itself. Keys and strings go through appendQuoted, doubles
 * through appendNumber, and integers print as std::to_string does.
 * There is no whitespace, indentation or option of any kind; the only
 * layout call is lineBreak(), for the dumps that put one record per
 * line. Nesting is not checked: an unbalanced begin/end pair writes
 * unbalanced JSON.
 */
class Writer
{
  public:
    explicit Writer(std::string &out) : out_(out) {}

    Writer &beginObject() { return open('{'); }
    Writer &endObject() { return close('}'); }
    Writer &beginArray() { return open('['); }
    Writer &endArray() { return close(']'); }

    /** An object member's key; the next call writes its value. */
    Writer &key(std::string_view name)
    {
        appendQuoted(element(), name);
        out_ += ':';
        needComma_ = false;
        return *this;
    }

    Writer &value(std::string_view s)
    {
        appendQuoted(element(), s);
        return *this;
    }
    Writer &value(const char *s) { return value(std::string_view(s)); }
    Writer &value(double v)
    {
        appendNumber(element(), v);
        return *this;
    }
    Writer &value(bool v) { return raw(v ? "true" : "false"); }

    template <typename T>
        requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
    Writer &value(T v)
    {
        char buf[24];
        const auto end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
        return raw(std::string_view(buf, static_cast<size_t>(end - buf)));
    }

    Writer &null() { return raw("null"); }

    /** key(name).value(v) in one call. */
    template <typename T>
    Writer &field(std::string_view name, const T &v)
    {
        return key(name).value(v);
    }

    /** A value that is already JSON text (a number rendered some other
     *  way, or a whole nested document), placed like any other value. */
    Writer &raw(std::string_view json)
    {
        element() += json;
        return *this;
    }

    /** Separates the next element from the one before it by ",\n"
     *  instead of ","; no effect if no element of the enclosing array or
     *  object follows one. */
    Writer &lineBreak()
    {
        lineBreak_ = true;
        return *this;
    }

  private:
    Writer &open(char bracket)
    {
        element() += bracket;
        needComma_ = false;
        return *this;
    }

    Writer &close(char bracket)
    {
        out_ += bracket;
        needComma_ = true;
        lineBreak_ = false;
        return *this;
    }

    /** Writes the comma that precedes an element, if one is due. */
    std::string &element()
    {
        if (needComma_) {
            out_ += ',';
            if (lineBreak_)
                out_ += '\n';
        }
        needComma_ = true;
        lineBreak_ = false;
        return out_;
    }

    std::string &out_;
    bool needComma_ = false; ///< an element precedes the next one
    bool lineBreak_ = false; ///< that comma ends the line
};

} // namespace polymath::json

#endif // POLYMATH_CORE_JSON_H_
