/**
 * @file
 * Unit tests for the core utilities: DType, Shape, Tensor, Rng, strings,
 * and the JSON reader/writer (escaping, number emission, nesting bound).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/dtype.h"
#include "core/error.h"
#include "core/json.h"
#include "core/logging.h"
#include "core/rng.h"
#include "core/shape.h"
#include "core/strings.h"
#include "core/tensor.h"

namespace polymath {
namespace {

TEST(DType, RoundTripsThroughStrings)
{
    for (DType t : {DType::Bin, DType::Int, DType::Float, DType::Str,
                    DType::Complex}) {
        const auto parsed = dtypeFromString(toString(t));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, t);
    }
    EXPECT_FALSE(dtypeFromString("double").has_value());
}

TEST(DType, SizesMatchAcceleratorLayout)
{
    EXPECT_EQ(dtypeSize(DType::Bin), 1);
    EXPECT_EQ(dtypeSize(DType::Int), 8);
    EXPECT_EQ(dtypeSize(DType::Float), 8);
    EXPECT_EQ(dtypeSize(DType::Complex), 16);
    EXPECT_EQ(dtypeSize(DType::Str), 0);
}

TEST(DType, PromotionPicksWiderType)
{
    EXPECT_EQ(promote(DType::Bin, DType::Int), DType::Int);
    EXPECT_EQ(promote(DType::Int, DType::Float), DType::Float);
    EXPECT_EQ(promote(DType::Float, DType::Complex), DType::Complex);
    EXPECT_EQ(promote(DType::Complex, DType::Bin), DType::Complex);
    EXPECT_THROW(promote(DType::Str, DType::Int), InternalError);
}

TEST(Shape, ScalarHasRankZeroAndOneElement)
{
    Shape s;
    EXPECT_TRUE(s.isScalar());
    EXPECT_EQ(s.rank(), 0);
    EXPECT_EQ(s.numel(), 1);
    EXPECT_EQ(s.str(), "scalar");
}

TEST(Shape, NumelAndStrides)
{
    Shape s{2, 3, 4};
    EXPECT_EQ(s.numel(), 24);
    EXPECT_EQ(s.strides(), (std::vector<int64_t>{12, 4, 1}));
    EXPECT_EQ(s.str(), "[2][3][4]");
}

TEST(Shape, FlattenIsRowMajor)
{
    Shape s{2, 3};
    EXPECT_EQ(s.flatten({0, 0}), 0);
    EXPECT_EQ(s.flatten({0, 2}), 2);
    EXPECT_EQ(s.flatten({1, 0}), 3);
    EXPECT_EQ(s.flatten({1, 2}), 5);
}

TEST(Shape, FlattenRejectsOutOfBounds)
{
    Shape s{2, 3};
    EXPECT_THROW(s.flatten({2, 0}), InternalError);
    EXPECT_THROW(s.flatten({0, 3}), InternalError);
    EXPECT_THROW(s.flatten({0}), InternalError);
}

class ShapeRoundTrip : public ::testing::TestWithParam<std::vector<int64_t>>
{
};

TEST_P(ShapeRoundTrip, UnflattenInvertsFlatten)
{
    const Shape s(GetParam());
    for (int64_t off = 0; off < s.numel(); ++off) {
        const auto idx = s.unflatten(off);
        EXPECT_EQ(s.flatten(idx), off);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ShapeRoundTrip,
    ::testing::Values(std::vector<int64_t>{7},
                      std::vector<int64_t>{3, 5},
                      std::vector<int64_t>{2, 3, 4},
                      std::vector<int64_t>{1, 9, 1},
                      std::vector<int64_t>{2, 1, 2, 3}));

TEST(Tensor, ZeroInitialized)
{
    Tensor t(DType::Float, Shape{3, 3});
    for (int64_t i = 0; i < t.numel(); ++i)
        EXPECT_EQ(t.at(i), 0.0);
}

TEST(Tensor, ScalarFactories)
{
    EXPECT_DOUBLE_EQ(Tensor::scalar(2.5).scalarValue(), 2.5);
    const auto c = Tensor::scalar(std::complex<double>{1.0, -2.0});
    EXPECT_TRUE(c.isComplex());
    EXPECT_EQ(c.cat(0), (std::complex<double>{1.0, -2.0}));
}

TEST(Tensor, FromFlatChecksSize)
{
    EXPECT_THROW(Tensor::fromFlat(Shape{2, 2}, {1, 2, 3}), InternalError);
    const auto t = Tensor::fromFlat(Shape{2, 2}, {1, 2, 3, 4});
    EXPECT_EQ(t.at({1, 1}), 4.0);
}

TEST(Tensor, CastTruncatesToInt)
{
    auto t = Tensor::vec({1.9, -2.7, 3.0});
    const auto i = t.cast(DType::Int);
    EXPECT_EQ(i.at(int64_t{0}), 1.0);
    EXPECT_EQ(i.at(int64_t{1}), -2.0);
    EXPECT_EQ(i.at(int64_t{2}), 3.0);
}

TEST(Tensor, CastToBinIsNonZeroTest)
{
    auto t = Tensor::vec({0.0, -0.5, 2.0});
    const auto b = t.cast(DType::Bin);
    EXPECT_EQ(b.at(int64_t{0}), 0.0);
    EXPECT_EQ(b.at(int64_t{1}), 1.0);
    EXPECT_EQ(b.at(int64_t{2}), 1.0);
}

TEST(Tensor, CastRealToComplexAndBack)
{
    auto t = Tensor::vec({1.0, 2.0});
    const auto c = t.cast(DType::Complex);
    EXPECT_EQ(c.cat(1), (std::complex<double>{2.0, 0.0}));
    const auto back = c.cast(DType::Float);
    EXPECT_EQ(back.at(int64_t{1}), 2.0);
}

TEST(Tensor, MaxAbsDiff)
{
    const auto a = Tensor::vec({1.0, 2.0, 3.0});
    const auto b = Tensor::vec({1.0, 2.5, 3.0});
    EXPECT_DOUBLE_EQ(Tensor::maxAbsDiff(a, b), 0.5);
    EXPECT_THROW(Tensor::maxAbsDiff(a, Tensor::vec({1.0})), InternalError);
}

TEST(Tensor, ComplexAccessorsGuardDtype)
{
    Tensor real(DType::Float, Shape{2});
    Tensor cplx(DType::Complex, Shape{2});
    EXPECT_THROW(real.cat(0), InternalError);
    EXPECT_THROW(cplx.at(int64_t{0}), InternalError);
    EXPECT_EQ(real.asComplex(0), (std::complex<double>{0.0, 0.0}));
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(99);
    double sum = 0.0;
    double sum2 = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sum2 += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, UniformIntBounds)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const int64_t v = rng.uniformInt(10);
        EXPECT_GE(v, 0);
        EXPECT_LT(v, 10);
    }
    EXPECT_THROW(rng.uniformInt(0), InternalError);
}

TEST(Strings, Format)
{
    EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(format("%.2f", 1.0 / 3.0), "0.33");
}

TEST(Strings, SplitAndJoin)
{
    const auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(join(parts, "/"), "a/b//c");
}

TEST(Strings, Trim)
{
    EXPECT_EQ(trim("  x y \t\n"), "x y");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(Strings, CountCodeLines)
{
    const std::string src = "a = 1\n\n// comment\n  // also\nb = 2\n";
    EXPECT_EQ(countCodeLines(src, "//"), 2);
    EXPECT_EQ(countCodeLines("# only\n# comments\n", "#"), 0);
}

TEST(Logging, LevelGateIsHonored)
{
    const LogLevel saved = logLevel();
    setLogLevel(LogLevel::Silent);
    EXPECT_EQ(logLevel(), LogLevel::Silent);
    inform("suppressed");
    warn("suppressed");
    setLogLevel(LogLevel::Info);
    EXPECT_EQ(logLevel(), LogLevel::Info);
    setLogLevel(saved);
}

TEST(Errors, SourceLocRendering)
{
    EXPECT_EQ(SourceLoc{}.str(), "<unknown>");
    EXPECT_EQ((SourceLoc{3, 7}).str(), "3:7");
}

TEST(Errors, FatalCarriesLocation)
{
    try {
        fatal("bad thing", SourceLoc{2, 5});
        FAIL() << "expected UserError";
    } catch (const UserError &e) {
        EXPECT_EQ(e.loc().line, 2);
        EXPECT_NE(std::string(e.what()).find("2:5"), std::string::npos);
    }
}

/** The byte-at-a-time escaper json::quote was before it copied
 *  unescaped runs in bulk; the oracle for json::quote/appendQuoted. */
std::string
quotePerByte(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; continue;
          case '\\': out += "\\\\"; continue;
          case '\n': out += "\\n"; continue;
          case '\t': out += "\\t"; continue;
          case '\r': out += "\\r"; continue;
          default: break;
        }
        const auto uc = static_cast<unsigned char>(c);
        if (uc < 0x20) {
            static const char hex[] = "0123456789abcdef";
            out += "\\u00";
            out += hex[uc >> 4];
            out += hex[uc & 0xf];
            continue;
        }
        out += c;
    }
    return out + "\"";
}

/** Every byte value once, in order. */
std::string
allBytes()
{
    std::string all;
    for (int b = 0; b < 256; ++b)
        all += static_cast<char>(b);
    return all;
}

TEST(Json, QuoteMatchesThePerByteEscaperOnEveryByte)
{
    for (int b = 0; b < 256; ++b) {
        const std::string one(1, static_cast<char>(b));
        EXPECT_EQ(json::quote(one), quotePerByte(one)) << "byte " << b;
    }
    const std::string all = allBytes();
    // Escapes at the ends and back to back, between pass-through runs.
    const std::string mixed = "\"ab\\\\c\n\x01" "d" + all + "tail\t";
    for (const std::string &s : {std::string(), all, mixed}) {
        EXPECT_EQ(json::quote(s), quotePerByte(s));
        std::string appended = "prefix:";
        json::appendQuoted(appended, s);
        EXPECT_EQ(appended, "prefix:" + quotePerByte(s));
    }
}

TEST(Json, QuotedStringsParseBackAndHoldNoNewline)
{
    const std::string all = allBytes();
    for (const std::string &s : {std::string(), std::string("\0", 1), all,
                                  "x\ny\"z\\" + all + all}) {
        const std::string quoted = json::quote(s);
        EXPECT_EQ(json::parse(quoted).str(), s);
        EXPECT_EQ(quoted.find('\n'), std::string::npos);
    }
}

TEST(Json, AppendNumberMatchesNumberToJson)
{
    using limits = std::numeric_limits<double>;
    const std::pair<double, const char *> pinned[] = {
        {0.0, "0"},
        {-0.0, "-0"},
        {1.5, "1.5"},
        {limits::quiet_NaN(), "\"nan\""},
        {limits::infinity(), "\"inf\""},
        {-limits::infinity(), "\"-inf\""},
        {limits::denorm_min(), "5e-324"},
        {-limits::denorm_min(), "-5e-324"},
        {limits::min(), "2.2250738585072014e-308"},
        {limits::max(), "1.7976931348623157e+308"},
        {limits::lowest(), "-1.7976931348623157e+308"},
        {limits::epsilon(), "2.220446049250313e-16"},
        {0.1, "0.1"},
        {1e21, "1e+21"},
    };
    for (const auto &[value, text] : pinned) {
        EXPECT_EQ(json::numberToJson(value), text);
        std::string out = "x";
        json::appendNumber(out, value);
        EXPECT_EQ(out, std::string("x") + text);
        const double back = json::numberFromJson(json::parse(text));
        if (std::isnan(value)) {
            EXPECT_TRUE(std::isnan(back));
        } else {
            EXPECT_EQ(back, value);
            EXPECT_EQ(std::signbit(back), std::signbit(value));
        }
    }
}

TEST(Json, NestingDepthIsBounded)
{
    const auto nested = [](int times, const char *open, const char *close) {
        std::string s;
        for (int i = 0; i < times; ++i)
            s += open;
        for (int i = 0; i < times; ++i)
            s += close;
        return s;
    };
    // Arrays and objects count alike; each "{"a":[" opens two levels.
    const int max = json::kMaxDepth;
    EXPECT_NO_THROW(json::parse(nested(max, "[", "]")));
    EXPECT_NO_THROW(json::parse(nested(max / 2, "{\"a\":[", "]}")));
    EXPECT_THROW(json::parse(nested(max + 1, "[", "]")), UserError);
    EXPECT_THROW(json::parse(nested(max / 2 + 1, "{\"a\":[", "]}")),
                 UserError);
    // One hostile line of brackets: a positioned error, not a stack
    // overflow. The level past the bound opens at offset kMaxDepth.
    try {
        json::parse(std::string(2000000, '['));
        FAIL() << "expected UserError";
    } catch (const UserError &e) {
        EXPECT_NE(std::string(e.what()).find("at offset " +
                                             std::to_string(max)),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace polymath
