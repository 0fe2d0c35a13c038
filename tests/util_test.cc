#include <sstream>

#include <gtest/gtest.h>

#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_utils.h"
#include "util/table_printer.h"

namespace re2xolap::util {
namespace {

// --- Status -------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::ParseError("x"), Status::ParseError("x"));
  EXPECT_FALSE(Status::ParseError("x") == Status::ParseError("y"));
  EXPECT_FALSE(Status::ParseError("x") == Status::Internal("x"));
}

TEST(StatusTest, StreamInsertion) {
  std::ostringstream os;
  os << Status::Timeout("too slow");
  EXPECT_EQ(os.str(), "Timeout: too slow");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kParseError,
        StatusCode::kTypeError, StatusCode::kExecutionError,
        StatusCode::kTimeout, StatusCode::kResourceExhausted,
        StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeToString(c), "Unknown");
  }
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status Caller(int x) {
  RE2X_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(Caller(1).ok());
  EXPECT_TRUE(Caller(-1).IsInvalidArgument());
}

// --- Result ---------------------------------------------------------------------

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  RE2X_ASSIGN_OR_RETURN(int h, Half(x));
  return Half(h);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  Result<int> ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
  EXPECT_FALSE(Quarter(5).ok());
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}

TEST(ResultTest, ValueOrFallsBackOnError) {
  Result<int> err = Status::NotFound("nope");
  EXPECT_EQ(err.value_or(42), 42);
  Result<int> ok = 7;
  EXPECT_EQ(ok.value_or(42), 7);
}

TEST(ResultDeathTest, ValueAccessOnErrorAborts) {
  Result<int> err = Status::NotFound("missing row");
  EXPECT_DEATH_IF_SUPPORTED((void)err.value(), "value\\(\\) accessed");
  EXPECT_DEATH_IF_SUPPORTED((void)*err, "missing row");
}

TEST(ResultDeathTest, ExpectNamesTheCallerOnAbort) {
  Result<int> err = Status::Internal("disk gone");
  EXPECT_DEATH_IF_SUPPORTED((void)err.expect("loading schema"),
                            "loading schema");
}

// --- string utils ------------------------------------------------------------------

TEST(StringUtilsTest, ToLower) {
  EXPECT_EQ(ToLower("HeLLo 123"), "hello 123");
  EXPECT_EQ(ToLower(""), "");
}

TEST(StringUtilsTest, Trim) {
  EXPECT_EQ(Trim("  a b  "), "a b");
  EXPECT_EQ(Trim("\t\nx"), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringUtilsTest, SplitKeepsEmptyPieces) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ", "), "");
}

TEST(StringUtilsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("ar", "bar"));
}

TEST(StringUtilsTest, ContainsIgnoreCase) {
  EXPECT_TRUE(ContainsIgnoreCase("October 2014", "october"));
  EXPECT_TRUE(ContainsIgnoreCase("October 2014", "2014"));
  EXPECT_FALSE(ContainsIgnoreCase("October 2014", "november"));
  EXPECT_TRUE(ContainsIgnoreCase("anything", ""));
}

TEST(StringUtilsTest, TokenizeWords) {
  EXPECT_EQ(TokenizeWords("October 2014"),
            (std::vector<std::string>{"october", "2014"}));
  EXPECT_EQ(TokenizeWords("Bosnia-Herzegovina (BA)"),
            (std::vector<std::string>{"bosnia", "herzegovina", "ba"}));
  EXPECT_TRUE(TokenizeWords("  .,;  ").empty());
  // Bytes >= 0x80 separate words and are never lowercased into them.
  EXPECT_EQ(TokenizeWords("Caf\xC3\xA9 M\xC3\x9CNCHEN"),
            (std::vector<std::string>{"caf", "m", "nchen"}));
}

TEST(StringUtilsTest, NextWordCutsViewsOfItsInput) {
  const std::string s = "..Oct. 2014";
  size_t pos = 0;
  std::string_view w = NextWord(s, &pos);
  EXPECT_EQ(w, "Oct");
  EXPECT_EQ(w.data(), s.data() + 2);
  EXPECT_EQ(NextWord(s, &pos), "2014");
  EXPECT_EQ(pos, s.size());
  EXPECT_TRUE(NextWord(s, &pos).empty());
  pos = 0;
  EXPECT_TRUE(NextWord("", &pos).empty());
}

TEST(StringUtilsTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.0), "3");
  EXPECT_EQ(FormatDouble(2.5), "2.5");
  EXPECT_EQ(FormatDouble(0.125), "0.125");
}

// --- RNG ----------------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, SkewedFavorsSmallIndices) {
  Rng rng(2);
  int small = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.Skewed(100) < 25) ++small;
  }
  // P(u^2 * 100 < 25) = P(u < 0.5) = 0.5, vs 0.25 for uniform.
  EXPECT_GT(small, n / 3);
}

// --- TablePrinter --------------------------------------------------------------------

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter p({"name", "value"});
  p.AddRow({"x", "1"});
  p.AddRow({"longer-name", "22"});
  std::ostringstream os;
  p.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("| name        | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer-name | 22    |"), std::string::npos);
  EXPECT_EQ(p.row_count(), 2u);
}

TEST(TablePrinterTest, PadsShortRows) {
  TablePrinter p({"a", "b", "c"});
  p.AddRow({"1"});
  std::ostringstream os;
  p.Print(os);
  EXPECT_NE(os.str().find("| 1 |"), std::string::npos);
}

}  // namespace
}  // namespace re2xolap::util
