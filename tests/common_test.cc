// Tests for common/: Status, StatusOr, string utilities, Rng, ParallelFor,
// the JSON reader/escaper and LineReader.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/line_reader.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/string_util.h"

namespace ccs {
namespace {

// --------------------------- Status ---------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, NamedConstructorsCarryCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::NotFound("missing thing").message(), "missing thing");
}

TEST(StatusTest, ToStringIncludesCodeNameAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return Status::Internal("boom"); };
  auto wrapper = [&]() -> Status {
    CCS_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

TEST(StatusTest, ReturnIfErrorPassesThroughOk) {
  auto succeeds = []() -> Status { return Status::OK(); };
  auto wrapper = [&]() -> Status {
    CCS_RETURN_IF_ERROR(succeeds());
    return Status::InvalidArgument("reached end");
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInvalidArgument);
}

// --------------------------- StatusOr --------------------------------

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, ValueOrFallback) {
  StatusOr<int> ok = 7;
  StatusOr<int> err = Status::Internal("x");
  EXPECT_EQ(ok.value_or(-1), 7);
  EXPECT_EQ(err.value_or(-1), -1);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> v = std::string("hello");
  std::string s = std::move(v).value();
  EXPECT_EQ(s, "hello");
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  auto inner = []() -> StatusOr<int> { return 5; };
  auto outer = [&]() -> StatusOr<int> {
    CCS_ASSIGN_OR_RETURN(int x, inner());
    return x * 2;
  };
  EXPECT_EQ(outer().value(), 10);
}

TEST(StatusOrTest, AssignOrReturnPropagatesError) {
  auto inner = []() -> StatusOr<int> { return Status::IoError("disk"); };
  auto outer = [&]() -> StatusOr<int> {
    CCS_ASSIGN_OR_RETURN(int x, inner());
    return x * 2;
  };
  EXPECT_EQ(outer().status().code(), StatusCode::kIoError);
}

TEST(StatusOrTest, ArrowOperator) {
  StatusOr<std::string> v = std::string("abc");
  EXPECT_EQ(v->size(), 3u);
}

// --------------------------- string_util -----------------------------

TEST(StringUtilTest, SplitBasic) {
  auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,c,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitSingleField) {
  auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtilTest, TrimWhitespace) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(StringUtilTest, ParseDoubleAcceptsValid) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.25").value(), 3.25);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e3").value(), -1000.0);
  EXPECT_DOUBLE_EQ(ParseDouble("  42 ").value(), 42.0);
  EXPECT_DOUBLE_EQ(ParseDouble("0").value(), 0.0);
}

TEST(StringUtilTest, ParseDoubleRejectsInvalid) {
  EXPECT_FALSE(ParseDouble("").has_value());
  EXPECT_FALSE(ParseDouble("abc").has_value());
  EXPECT_FALSE(ParseDouble("1.5x").has_value());
  EXPECT_FALSE(ParseDouble("--3").has_value());
}

// ParseDouble's contract without its fast path: Trim, then
// std::from_chars over the whole text, NaN rejected.
std::optional<double> FromCharsReference(std::string_view text) {
  text = Trim(text);
  if (text.empty()) return std::nullopt;
  double value = 0.0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || std::isnan(value)) {
    return std::nullopt;
  }
  return value;
}

// Checks `text` three ways against FromCharsReference: ParseDouble's
// acceptance and bits, and the number ParseExactDecimal reads at its
// start, both alone (the scalar reader for short text) and followed by
// a delimiter and padding (the sixteen-byte window). Returns how many of
// the two ParseExactDecimal calls accepted.
int ExpectParsesLikeFromChars(const std::string& text) {
  SCOPED_TRACE("text '" + text + "'");
  const std::optional<double> want = FromCharsReference(text);
  const std::optional<double> got = ParseDouble(text);
  EXPECT_EQ(got.has_value(), want.has_value());
  if (got.has_value() && want.has_value()) {
    EXPECT_EQ(DoubleBits(*got), DoubleBits(*want));
  }
  int accepted = 0;
  const std::string padded = text + ",0123456789abcdef";
  for (const std::string* buffer : {&text, &padded}) {
    double value = 0.0;
    const char* begin = buffer->data();
    const char* stop =
        ParseExactDecimal(begin, begin + buffer->size(), &value);
    if (stop == nullptr) continue;
    ++accepted;
    EXPECT_LE(stop, begin + text.size());
    const std::optional<double> prefix = FromCharsReference(
        std::string_view(begin, static_cast<size_t>(stop - begin)));
    EXPECT_TRUE(prefix.has_value());
    if (prefix.has_value()) {
      EXPECT_EQ(DoubleBits(value), DoubleBits(*prefix));
    }
  }
  return accepted;
}

TEST(StringUtilTest, ParseDoubleMatchesFromCharsBitwise) {
  // Edge forms: no digit on one side of the '.', signs, padding,
  // exponents, the 2^53 mantissa bound, 19- and 20-digit mantissas, and
  // 22 and 23 fraction digits.
  for (const char* text :
       {".5", "5.", ".", "-", "-0", "-.5", "+1", " 1", "1 ", "1e5", "0",
        "-0.0", "00", "1.5.2", "--1", "1-", "nan", "inf", "0x10", "",
        "9007199254740992", "9007199254740993", "-9007199254740992",
        "900719925474099.3", "1234567890123456789", "12345678901234567890",
        "0000000000000000001", "00000000000000000001",
        "0.0000000000000000000001", "0.00000000000000000000001",
        "-0.0000000000000000000000", "0.4450147717014402",
        "123456789012345", "1234567890123456", "12345678901234.5",
        "0.12345678901234"}) {
    ExpectParsesLikeFromChars(text);
  }
  // The fast path takes the plain forms, in the window and alone, and
  // leaves the rest to from_chars.
  EXPECT_EQ(ExpectParsesLikeFromChars("-1.160495285"), 2);
  EXPECT_EQ(ExpectParsesLikeFromChars("9007199254740992"), 2);
  EXPECT_EQ(ExpectParsesLikeFromChars("0.0000000000000000000001"), 2);
  EXPECT_EQ(ExpectParsesLikeFromChars("9007199254740993"), 0);
  EXPECT_EQ(ExpectParsesLikeFromChars("0.00000000000000000000001"), 0);

  Rng rng(20210620);
  auto pick = [&](size_t lo, size_t hi) {
    return static_cast<size_t>(rng.UniformInt(static_cast<int64_t>(lo),
                                              static_cast<int64_t>(hi)));
  };
  // `count` digits, the first `zeros` of them '0'.
  auto digits = [&](size_t count, size_t zeros) {
    std::string out(zeros, '0');
    while (out.size() < count) out += static_cast<char>('0' + pick(0, 9));
    return out;
  };
  int fast = 0;
  // Random digit strings: 1-25 digits, leading zeros, with and without
  // '-' and '.' (the '.' anywhere, ends included).
  for (int draw = 0; draw < 100000 && !HasFailure(); ++draw) {
    const size_t count = pick(1, 25);
    std::string text = digits(count, pick(0, count));
    if (rng.Bernoulli(0.7)) text.insert(pick(0, count), 1, '.');
    if (rng.Bernoulli(0.3)) text.insert(0, 1, '-');
    fast += ExpectParsesLikeFromChars(text);
  }
  // Around the bounds: 16-17 digit mantissas (2^53 < m <= 2^54 is common
  // there) and 22 or 23 fraction digits behind leading zeros.
  for (int draw = 0; draw < 20000 && !HasFailure(); ++draw) {
    std::string text = digits(pick(16, 17), 0);
    text.insert(pick(1, 15), 1, '.');
    fast += ExpectParsesLikeFromChars(text);
    const size_t fraction = pick(22, 23);
    fast += ExpectParsesLikeFromChars(
        "0." + digits(fraction, fraction - pick(1, 16)));
  }
  EXPECT_GT(fast, 100000);
}

TEST(StringUtilTest, ParseIntAcceptsValid) {
  EXPECT_EQ(ParseInt("123").value(), 123);
  EXPECT_EQ(ParseInt("-9").value(), -9);
}

TEST(StringUtilTest, ParseIntRejectsInvalid) {
  EXPECT_FALSE(ParseInt("").has_value());
  EXPECT_FALSE(ParseInt("1.5").has_value());
  EXPECT_FALSE(ParseInt("12a").has_value());
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("hello world", "hello"));
  EXPECT_FALSE(StartsWith("hello", "hello world"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(StringUtilTest, FormatDoubleCompact) {
  EXPECT_EQ(FormatDouble(1.0), "1");
  EXPECT_EQ(FormatDouble(0.5), "0.5");
  EXPECT_EQ(FormatDouble(-2.0), "-2");
}

TEST(StringUtilTest, FormatDoubleRoundTripsThroughParse) {
  for (double v : {3.14159, -0.001, 123456.789, 1e-6}) {
    EXPECT_NEAR(ParseDouble(FormatDouble(v)).value(), v,
                std::abs(v) * 1e-9 + 1e-12);
  }
}

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("HeLLo"), "hello");
  EXPECT_EQ(ToLower("123AB"), "123ab");
}

// --------------------------- Rng -------------------------------------

TEST(StringUtilTest, HexBitsRoundTripsEveryBit) {
  // Sign, NaN payload and all: the form golden traces and checkpoints
  // store must bring back the exact double.
  const double quiet = std::numeric_limits<double>::quiet_NaN();
  double payload_nan = 0.0;
  const uint64_t payload_bits = 0xfff8000000000123ull;
  std::memcpy(&payload_nan, &payload_bits, sizeof(payload_nan));
  for (double v : {0.0, -0.0, 1.0, -2.5, 1e-310, quiet, payload_nan,
                   std::numeric_limits<double>::infinity()}) {
    const std::string text = HexBits(DoubleBits(v));
    ASSERT_EQ(text.size(), 16u);
    std::optional<double> back = ParseHexBits(text);
    ASSERT_TRUE(back.has_value()) << text;
    EXPECT_EQ(DoubleBits(*back), DoubleBits(v)) << text;
  }
  EXPECT_EQ(HexBits(DoubleBits(1.0)), "3ff0000000000000");
  EXPECT_EQ(HexBits(DoubleBits(-0.0)), "8000000000000000");
  EXPECT_NE(DoubleBits(0.0), DoubleBits(-0.0));
}

TEST(StringUtilTest, ParseHexBitsRejectsOtherText) {
  for (const char* text : {"", "3ff000000000000", "3ff00000000000000",
                           "3ff000000000000g", " 3ff000000000000",
                           "0x3ff00000000000", "+3ff000000000000"}) {
    EXPECT_FALSE(ParseHexBits(text).has_value()) << "'" << text << "'";
  }
}

TEST(RngTest, DeterministicForFixedSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 20; ++i) {
    if (a.Uniform() == b.Uniform()) ++same;
  }
  EXPECT_LT(same, 20);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(0, 4);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 4);
    saw_lo |= (v == 0);
    saw_hi |= (v == 4);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0, sumsq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Gaussian(5.0, 2.0);
    sum += v;
    sumsq += v * v;
  }
  double mean = sum / n;
  double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.25);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(17);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.5);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(19);
  auto perm = rng.Permutation(100);
  std::vector<bool> seen(100, false);
  for (size_t idx : perm) {
    ASSERT_LT(idx, 100u);
    EXPECT_FALSE(seen[idx]);
    seen[idx] = true;
  }
}

TEST(RngTest, ShuffleKeepsMultiset) {
  Rng rng(23);
  std::vector<int> items = {1, 2, 3, 4, 5};
  std::vector<int> shuffled = items;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(ParallelTest, CoversRangeExactlyOnce) {
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  common::ParallelOptions options;
  options.num_threads = 4;
  options.min_chunk = 128;  // Force many chunks.
  common::ParallelFor(
      kN,
      [&](size_t begin, size_t end) {
        ASSERT_LE(begin, end);
        ASSERT_LE(end, kN);
        for (size_t i = begin; i < end; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      },
      options);
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelTest, EmptyRangeDoesNothing) {
  bool called = false;
  common::ParallelFor(0, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelTest, NestedCallsRunSerially) {
  // An outer parallel loop whose body parallelizes again must complete
  // (inner calls degrade to serial instead of deadlocking the pool).
  std::atomic<size_t> total{0};
  common::ParallelOptions outer;
  outer.num_threads = 4;
  outer.min_chunk = 1;
  common::ParallelFor(
      8,
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          common::ParallelOptions inner;
          inner.num_threads = 4;
          inner.min_chunk = 1;
          common::ParallelFor(
              100,
              [&](size_t b, size_t e) {
                total.fetch_add(e - b, std::memory_order_relaxed);
              },
              inner);
        }
      },
      outer);
  EXPECT_EQ(total.load(), 800u);
}

TEST(ParallelTest, DefaultThreadCountOverride) {
  size_t hardware = common::DefaultThreadCount();
  EXPECT_GE(hardware, 1u);
  common::SetDefaultThreadCount(3);
  EXPECT_EQ(common::DefaultThreadCount(), 3u);
  common::SetDefaultThreadCount(0);
  EXPECT_EQ(common::DefaultThreadCount(), hardware);
}

TEST(ParallelForEachTest, VisitsEveryIndexExactlyOnce) {
  constexpr size_t kN = 997;  // Prime, so no chunk boundary coincidences.
  std::vector<std::atomic<int>> hits(kN);
  common::ParallelForEach(
      kN,
      [&](size_t i) {
        ASSERT_LT(i, kN);
        hits[i].fetch_add(1, std::memory_order_relaxed);
      },
      /*num_threads=*/4);
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForEachTest, EmptyRangeDoesNothing) {
  bool called = false;
  common::ParallelForEach(0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForEachTest, SkewedItemCostsAllComplete) {
  // One index is vastly more expensive; the work queue must still drain
  // every other index (no lane waits behind the big one).
  std::atomic<size_t> done{0};
  common::ParallelForEach(
      64,
      [&](size_t i) {
        volatile double sink = 0.0;
        size_t spins = (i == 0) ? 2000000 : 100;
        for (size_t k = 0; k < spins; ++k) sink += 1.0;
        done.fetch_add(1, std::memory_order_relaxed);
      },
      /*num_threads=*/4);
  EXPECT_EQ(done.load(), 64u);
}

TEST(ParallelForEachTest, NestedCallsComplete) {
  // Inner dispatches from pool workers degrade to serial; either way
  // every inner index must run exactly once with no deadlock.
  std::atomic<size_t> total{0};
  common::ParallelForEach(
      8,
      [&](size_t) {
        common::ParallelForEach(
            100, [&](size_t) { total.fetch_add(1, std::memory_order_relaxed); },
            /*num_threads=*/4);
      },
      /*num_threads=*/4);
  EXPECT_EQ(total.load(), 800u);
}

// --------------------------- JSON -------------------------------------

TEST(JsonTest, EscapeThenReadRoundTripsEveryByte) {
  std::string all;
  for (int c = 0; c < 256; ++c) all.push_back(static_cast<char>(c));
  const std::string text = "\"" + common::EscapeJson(all) + "\"";
  common::JsonReader reader(text, "test");
  auto back = reader.String();
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, all);
  EXPECT_TRUE(reader.End().ok());
}

TEST(JsonTest, ReadsObjectsArraysAndNumbers) {
  common::JsonReader reader(
      " {\"a\": [1, 2.5e-1, -0], \"b\": {}, \"c\": [] , \"d\": 0} ",
      "test");
  std::vector<double> a;
  std::vector<std::string> keys;
  uint64_t d = 9;
  ASSERT_TRUE(reader
                  .Object([&](const std::string& key) -> Status {
                    keys.push_back(key);
                    if (key == "a") {
                      return reader.Array([&] {
                        return common::Store(reader.Double(),
                                             &a.emplace_back());
                      });
                    }
                    if (key == "b") {
                      return reader.Object([](const std::string&) {
                        return Status::Internal("empty object");
                      });
                    }
                    if (key == "c") {
                      return reader.Array(
                          [] { return Status::Internal("empty array"); });
                    }
                    return common::Store(reader.Uint(), &d);
                  })
                  .ok());
  EXPECT_TRUE(reader.End().ok());
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c", "d"}));
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0], 1.0);
  EXPECT_EQ(a[1], 0.25);
  EXPECT_TRUE(std::signbit(a[2]));
  EXPECT_EQ(d, 0u);
}

TEST(JsonTest, RejectsNonJsonNumbersAndInexactIntegers) {
  for (const char* bad : {"+1", ".5", "1.", "01", "-", "1e", "NaN", "inf",
                          "1e999", "0x10"}) {
    common::JsonReader reader(bad, "ctx");
    auto v = reader.Double();
    const bool rejected = !v.ok() || !reader.End().ok();
    EXPECT_TRUE(rejected) << bad;
  }
  for (const char* bad : {"2.5", "1e3", "-1", "-0", "18446744073709551616"}) {
    common::JsonReader reader(bad, "ctx");
    Status status = reader.Uint().status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_EQ(status.message().rfind("ctx: ", 0), 0u) << status.message();
  }
  common::JsonReader max("18446744073709551615", "ctx");
  auto v = max.Uint();
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(*v, std::numeric_limits<uint64_t>::max());
}

// --------------------------- LineReader -------------------------------

TEST(LineReaderTest, SplitsExactlyLikeGetline) {
  for (const std::string text :
       {"", "\n", "a", "a\n", "a\nb", "a\n\nb\n", "\n\n", "x\r\ny"}) {
    std::istringstream in(text);
    common::LineReader reader(text, "end of input");
    size_t lines = 0;
    for (std::string expected; std::getline(in, expected);) {
      auto line = reader.Next();
      ASSERT_TRUE(line.ok()) << line.status();
      EXPECT_EQ(*line, expected);
      EXPECT_EQ(reader.line_number(), ++lines);
    }
    Status end = reader.Next().status();
    EXPECT_EQ(end.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(end.message(), "end of input");
  }
}

}  // namespace
}  // namespace ccs
