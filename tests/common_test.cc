// Tests for common/: Status, StatusOr, string utilities, Rng, ParallelFor.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

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

}  // namespace
}  // namespace ccs
