#include "core/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>

#include "core/error.h"
#include "core/strings.h"

namespace polymath::json {

double
Value::num() const
{
    if (!std::holds_alternative<double>(data))
        fatal("json: expected number");
    return std::get<double>(data);
}

const std::string &
Value::str() const
{
    if (!std::holds_alternative<std::string>(data))
        fatal("json: expected string");
    return std::get<std::string>(data);
}

const Array &
Value::arr() const
{
    if (!std::holds_alternative<Array>(data))
        fatal("json: expected array");
    return std::get<Array>(data);
}

const Object &
Value::obj() const
{
    if (!std::holds_alternative<Object>(data))
        fatal("json: expected object");
    return std::get<Object>(data);
}

const Value &
Value::at(const std::string &key) const
{
    const auto &o = obj();
    auto it = o.find(key);
    if (it == o.end())
        fatal("json: missing key '" + key + "'");
    return it->second;
}

bool
Value::has(const std::string &key) const
{
    if (!std::holds_alternative<Object>(data))
        return false;
    return std::get<Object>(data).count(key) > 0;
}

namespace {

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Value parse()
    {
        auto v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fatal("json: trailing characters");
        return v;
    }

  private:
    void skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    char peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            fatal("json: unexpected end of input");
        return text_[pos_];
    }

    void expect(char c)
    {
        if (peek() != c)
            fatal(format("json: expected '%c' at offset %zu", c, pos_));
        ++pos_;
    }

    Value parseValue()
    {
        const char c = peek();
        if (c == '{')
            return parseObject();
        if (c == '[')
            return parseArray();
        if (c == '"')
            return Value{parseString()};
        if (c == 't') {
            literal("true");
            return Value{true};
        }
        if (c == 'f') {
            literal("false");
            return Value{false};
        }
        if (c == 'n') {
            literal("null");
            return Value{nullptr};
        }
        return parseNumber();
    }

    void literal(const char *word)
    {
        skipWs();
        for (const char *p = word; *p; ++p) {
            if (pos_ >= text_.size() || text_[pos_] != *p)
                fatal("json: bad literal");
            ++pos_;
        }
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\') {
                if (pos_ >= text_.size())
                    fatal("json: bad escape");
                const char esc = text_[pos_++];
                switch (esc) {
                  case 'n': c = '\n'; break;
                  case 't': c = '\t'; break;
                  case 'r': c = '\r'; break;
                  case 'b': c = '\b'; break;
                  case 'f': c = '\f'; break;
                  case '/': c = '/'; break;
                  case '"': c = '"'; break;
                  case '\\': c = '\\'; break;
                  case 'u': {
                      out += parseUnicodeEscape();
                      continue;
                  }
                  default: fatal("json: unsupported escape");
                }
            }
            out += c;
        }
        if (pos_ >= text_.size())
            fatal("json: unterminated string");
        ++pos_; // closing quote
        return out;
    }

    /** Consumes the 4 hex digits of a \\uXXXX escape (the leading
     *  "\\u" is already consumed) and returns the UTF-8 encoding.
     *  Surrogate pairs are not decoded — the service protocol only
     *  emits \\u00XX for control characters — but lone code points up
     *  to U+FFFF round-trip. */
    std::string parseUnicodeEscape()
    {
        if (pos_ + 4 > text_.size())
            fatal("json: bad \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9')
                code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
            else
                fatal("json: bad \\u escape");
        }
        std::string out;
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
        } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
        }
        return out;
    }

    Value parseNumber()
    {
        skipWs();
        const size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E')) {
            ++pos_;
        }
        if (start == pos_)
            fatal("json: expected a value");
        // from_chars, not stod: stod honors the global locale (a
        // comma-decimal locale rejects "1.5") and throws raw exceptions.
        double value = 0;
        const char *begin = text_.data() + start;
        const char *end = text_.data() + pos_;
        const auto [ptr, ec] = std::from_chars(begin, end, value);
        if (ec == std::errc::result_out_of_range)
            fatal("json: number out of range: " +
                  text_.substr(start, pos_ - start));
        if (ec != std::errc{} || ptr != end)
            fatal("json: malformed number: " +
                  text_.substr(start, pos_ - start));
        return Value{value};
    }

    /** One open array/object level, held for the scope of its parse. */
    class Level
    {
      public:
        explicit Level(Parser &parser) : parser_(parser)
        {
            if (parser.depth_ >= kMaxDepth)
                fatal(format("json: nesting deeper than %d levels at "
                             "offset %zu",
                             kMaxDepth, parser.pos_));
            ++parser.depth_;
        }
        ~Level() { --parser_.depth_; }
        Level(const Level &) = delete;
        Level &operator=(const Level &) = delete;

      private:
        Parser &parser_;
    };

    Value parseArray()
    {
        const Level level(*this);
        expect('[');
        Array out;
        if (peek() == ']') {
            ++pos_;
            return Value{std::move(out)};
        }
        while (true) {
            out.push_back(parseValue());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return Value{std::move(out)};
        }
    }

    Value parseObject()
    {
        const Level level(*this);
        expect('{');
        Object out;
        if (peek() == '}') {
            ++pos_;
            return Value{std::move(out)};
        }
        while (true) {
            const std::string key = parseString();
            expect(':');
            out.emplace(key, parseValue());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return Value{std::move(out)};
        }
    }

    const std::string &text_;
    size_t pos_ = 0;
    int depth_ = 0;
};

} // namespace

Value
parse(const std::string &text)
{
    return Parser(text).parse();
}

void
appendNumber(std::string &out, double value)
{
    if (std::isnan(value)) {
        out += "\"nan\"";
        return;
    }
    if (std::isinf(value)) {
        out += value < 0 ? "\"-inf\"" : "\"inf\"";
        return;
    }
    char buf[32];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
    if (ec != std::errc{})
        panic("json: double does not fit the to_chars buffer");
    out.append(buf, ptr);
}

std::string
numberToJson(double value)
{
    std::string out;
    appendNumber(out, value);
    return out;
}

double
numberFromJson(const Value &v)
{
    if (std::holds_alternative<std::string>(v.data)) {
        const auto &s = std::get<std::string>(v.data);
        if (s == "nan")
            return std::numeric_limits<double>::quiet_NaN();
        if (s == "inf")
            return std::numeric_limits<double>::infinity();
        if (s == "-inf")
            return -std::numeric_limits<double>::infinity();
        fatal("json: expected a number or inf/-inf/nan, got \"" + s +
              "\"");
    }
    return v.num();
}

void
appendQuoted(std::string &out, std::string_view s)
{
    static const char hex[] = "0123456789abcdef";
    out += '"';
    size_t run = 0; // start of the pending run of bytes that pass through
    for (size_t i = 0; i < s.size(); ++i) {
        const auto uc = static_cast<unsigned char>(s[i]);
        if (uc >= 0x20 && uc != '"' && uc != '\\')
            continue;
        out.append(s.data() + run, i - run);
        run = i + 1;
        switch (uc) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default: {
              const char esc[] = {'\\', 'u', '0', '0', hex[uc >> 4],
                                  hex[uc & 0xf]};
              out.append(esc, sizeof(esc));
          }
        }
    }
    out.append(s.data() + run, s.size() - run);
    out += '"';
}

std::string
quote(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    appendQuoted(out, s);
    return out;
}

} // namespace polymath::json
