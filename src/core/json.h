/**
 * @file
 * Minimal JSON value, parser, and locale-independent number emission
 * (no external dependencies), shared by the srDFG serializer, the bench
 * artifact pipeline, and tools/bench_compare.
 *
 * Parsing and emission both go through std::from_chars/std::to_chars,
 * so neither consults the global locale (DESIGN.md §"Locale"): "1.5"
 * parses and prints as "1.5" even under a comma-decimal locale.
 */
#ifndef POLYMATH_CORE_JSON_H_
#define POLYMATH_CORE_JSON_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
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
 * Locale-independent double → JSON. to_chars emits the shortest decimal
 * string that round-trips to the same bits (so -0.0, subnormals and
 * 1e308 all survive), where printf %g goes through the C locale and
 * can emit comma decimals. Infinities and NaN are not representable as
 * JSON numbers, so they travel as the strings "inf"/"-inf"/"nan".
 */
std::string numberToJson(double value);

/** Appends numberToJson(@p value) to @p out without a temporary. */
void appendNumber(std::string &out, double value);

/** Inverse of numberToJson: a plain number or one of the non-finite
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

} // namespace polymath::json

#endif // POLYMATH_CORE_JSON_H_
