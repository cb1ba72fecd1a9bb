// Bitwise-equivalence suite for the zero-copy DataFrame view layer.
//
// Filter/Slice/Gather/Sample/PartitionBy now return selection-vector
// views over shared column buffers, and categorical columns are
// dictionary-encoded. This file proves the refactor is invisible to
// consumers: every view-based result — cells, gathered matrices,
// violation scores, synthesized constraints — is bitwise identical
// (memcmp on doubles, string equality on categoricals) to the result of
// an explicit row-by-row deep copy, including the edge cases the
// selection machinery could get wrong: empty selections, single-row
// views, views of views, and dictionaries round-tripped through CSV.

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "common/parallel.h"
#include "common/random.h"
#include "core/constraint.h"
#include "core/projection.h"
#include "core/synthesizer.h"
#include "dataframe/csv.h"
#include "dataframe/dataframe.h"

namespace ccs::dataframe {
namespace {

// A mixed frame with correlated numerics and a skewed categorical.
DataFrame MakeFrame(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n), y(n), z(n);
  std::vector<std::string> tag(n), group(n);
  const char* tags[] = {"alpha", "beta", "gamma", "delta"};
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Uniform(-10.0, 10.0);
    y[i] = 2.0 * x[i] + rng.Gaussian(0.0, 0.3);
    z[i] = rng.Gaussian(5.0, 2.0);
    tag[i] = tags[rng.UniformInt(0, 3)];
    group[i] = rng.UniformInt(0, 9) < 7 ? "big" : "small";  // Skewed.
  }
  DataFrame df;
  CCS_CHECK(df.AddNumericColumn("x", std::move(x)).ok());
  CCS_CHECK(df.AddCategoricalColumn("tag", std::move(tag)).ok());
  CCS_CHECK(df.AddNumericColumn("y", std::move(y)).ok());
  CCS_CHECK(df.AddCategoricalColumn("group", std::move(group)).ok());
  CCS_CHECK(df.AddNumericColumn("z", std::move(z)).ok());
  return df;
}

// The pre-view reference semantics: a deep copy assembled cell by cell
// through the public per-row accessors.
DataFrame GatherByCopy(const DataFrame& df, const std::vector<size_t>& rows) {
  DataFrame out;
  for (size_t c = 0; c < df.num_columns(); ++c) {
    const std::string& name = df.schema().attribute(c).name;
    const Column& col = df.column(c);
    if (col.is_numeric()) {
      std::vector<double> values;
      values.reserve(rows.size());
      for (size_t r : rows) values.push_back(col.NumericAt(r));
      CCS_CHECK(out.AddNumericColumn(name, std::move(values)).ok());
    } else {
      std::vector<std::string> values;
      values.reserve(rows.size());
      for (size_t r : rows) values.push_back(col.CategoricalAt(r));
      CCS_CHECK(out.AddCategoricalColumn(name, std::move(values)).ok());
    }
  }
  return out;
}

bool BitsEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectFramesBitwiseEqual(const DataFrame& a, const DataFrame& b) {
  ASSERT_TRUE(a.schema() == b.schema());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const Column& ca = a.column(c);
    const Column& cb = b.column(c);
    for (size_t r = 0; r < a.num_rows(); ++r) {
      if (ca.is_numeric()) {
        EXPECT_TRUE(BitsEqual(ca.NumericAt(r), cb.NumericAt(r)))
            << "column " << c << " row " << r;
      } else {
        EXPECT_EQ(ca.CategoricalAt(r), cb.CategoricalAt(r))
            << "column " << c << " row " << r;
      }
    }
  }
}

void ExpectMatricesBitwiseEqual(const linalg::Matrix& a,
                                const linalg::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      EXPECT_TRUE(BitsEqual(a.At(i, j), b.At(i, j))) << i << "," << j;
    }
  }
}

// ------------------------- row-subset operations -----------------------

TEST(ViewEquivalenceTest, GatherMatchesDeepCopy) {
  DataFrame df = MakeFrame(200, 1);
  Rng rng(2);
  std::vector<size_t> rows;
  for (size_t i = 0; i < 150; ++i) {
    rows.push_back(static_cast<size_t>(rng.UniformInt(0, 199)));  // Repeats.
  }
  DataFrame view = df.Gather(rows);
  EXPECT_TRUE(view.is_view());
  ExpectFramesBitwiseEqual(view, GatherByCopy(df, rows));
  // Materialize flattens without changing a bit.
  DataFrame flat = view.Materialize();
  EXPECT_FALSE(flat.is_view());
  ExpectFramesBitwiseEqual(view, flat);
}

TEST(ViewEquivalenceTest, FilterMatchesDeepCopy) {
  DataFrame df = MakeFrame(300, 3);
  auto pred = [&](size_t i) { return df.NumericValue(i, "x").value() > 0.0; };
  std::vector<size_t> rows;
  for (size_t i = 0; i < df.num_rows(); ++i) {
    if (pred(i)) rows.push_back(i);
  }
  ExpectFramesBitwiseEqual(df.Filter(pred), GatherByCopy(df, rows));
}

TEST(ViewEquivalenceTest, SliceMatchesDeepCopyAndClamps) {
  DataFrame df = MakeFrame(100, 4);
  std::vector<size_t> rows;
  for (size_t i = 20; i < 70; ++i) rows.push_back(i);
  ExpectFramesBitwiseEqual(df.Slice(20, 70), GatherByCopy(df, rows));
  EXPECT_EQ(df.Slice(90, 1000).num_rows(), 10u);
  EXPECT_EQ(df.Slice(50, 10).num_rows(), 0u);
}

TEST(ViewEquivalenceTest, EmptyAndSingleRowSelections) {
  DataFrame df = MakeFrame(50, 5);
  DataFrame empty = df.Gather({});
  EXPECT_EQ(empty.num_rows(), 0u);
  ASSERT_TRUE(empty.schema() == df.schema());
  ExpectFramesBitwiseEqual(empty, GatherByCopy(df, {}));
  ExpectFramesBitwiseEqual(empty.Materialize(), empty);

  DataFrame one = df.Gather({49});
  ASSERT_EQ(one.num_rows(), 1u);
  ExpectFramesBitwiseEqual(one, GatherByCopy(df, {49}));
  EXPECT_EQ(one.CategoricalValue(0, "tag").value(),
            df.CategoricalValue(49, "tag").value());
}

TEST(ViewEquivalenceTest, ViewsOfViewsCompose) {
  DataFrame df = MakeFrame(200, 6);
  // view1 = rows 100..199, view2 = every 3rd of view1, view3 = reversed
  // head of view2: three levels of selection composition.
  DataFrame view1 = df.Slice(100, 200);
  std::vector<size_t> every_third;
  for (size_t i = 0; i < view1.num_rows(); i += 3) every_third.push_back(i);
  DataFrame view2 = view1.Gather(every_third);
  std::vector<size_t> reversed;
  for (size_t i = std::min<size_t>(view2.num_rows(), 10); i-- > 0;) {
    reversed.push_back(i);
  }
  DataFrame view3 = view2.Gather(reversed);

  // The brute-force expectation, composed on absolute row numbers.
  std::vector<size_t> absolute;
  for (size_t i : reversed) absolute.push_back(100 + every_third[i] );
  ExpectFramesBitwiseEqual(view3, GatherByCopy(df, absolute));
  ExpectFramesBitwiseEqual(view3.Materialize(), view3);
}

TEST(ViewEquivalenceTest, SampleIsAViewAndMatchesItsMaterialization) {
  DataFrame df = MakeFrame(120, 7);
  Rng rng_a(42);
  Rng rng_b(42);
  DataFrame sample = df.Sample(60, &rng_a);
  // Same seed, explicit copy of the same permutation.
  std::vector<size_t> perm = rng_b.Permutation(df.num_rows());
  perm.resize(60);
  ExpectFramesBitwiseEqual(sample, GatherByCopy(df, perm));
}

TEST(ViewEquivalenceTest, PartitionByMatchesDeepCopyPartitions) {
  DataFrame df = MakeFrame(400, 8);
  auto parts = df.PartitionBy("tag");
  ASSERT_TRUE(parts.ok());
  // Reference: group rows by string with a stable scan.
  std::map<std::string, std::vector<size_t>> expected;
  for (size_t i = 0; i < df.num_rows(); ++i) {
    expected[df.CategoricalValue(i, "tag").value()].push_back(i);
  }
  ASSERT_EQ(parts->size(), expected.size());
  size_t total = 0;
  for (const auto& [value, rows] : expected) {
    ASSERT_TRUE(parts->count(value)) << value;
    ExpectFramesBitwiseEqual(parts->at(value), GatherByCopy(df, rows));
    total += rows.size();
  }
  EXPECT_EQ(total, df.num_rows());
}

TEST(ViewEquivalenceTest, PartitionOfViewMatchesPartitionOfMaterialized) {
  DataFrame df = MakeFrame(300, 9);
  DataFrame view = df.Filter(
      [&](size_t i) { return df.NumericValue(i, "z").value() > 5.0; });
  auto from_view = view.PartitionBy("group");
  auto from_flat = view.Materialize().PartitionBy("group");
  ASSERT_TRUE(from_view.ok());
  ASSERT_TRUE(from_flat.ok());
  ASSERT_EQ(from_view->size(), from_flat->size());
  for (const auto& [value, part] : *from_view) {
    ASSERT_TRUE(from_flat->count(value));
    ExpectFramesBitwiseEqual(part, from_flat->at(value));
  }
}

// --------------------------- matrix gathering --------------------------

TEST(ViewEquivalenceTest, NumericMatrixForOnViewMatchesMaterialized) {
  DataFrame df = MakeFrame(250, 10);
  DataFrame view = df.Slice(30, 210).Filter(
      [](size_t i) { return i % 2 == 0; });  // View of a view.
  DataFrame flat = view.Materialize();
  std::vector<std::string> names = {"z", "x", "y"};  // Reordered on purpose.

  auto m_view = view.NumericMatrixFor(names);
  auto m_flat = flat.NumericMatrixFor(names);
  ASSERT_TRUE(m_view.ok());
  ASSERT_TRUE(m_flat.ok());
  ExpectMatricesBitwiseEqual(*m_view, *m_flat);

  // The row-subset overload, through the same composed selections.
  std::vector<size_t> rows = {5, 0, 17, 17, 2};
  auto s_view = view.NumericMatrixFor(names, rows);
  auto s_flat = flat.NumericMatrixFor(names, rows);
  ASSERT_TRUE(s_view.ok());
  ASSERT_TRUE(s_flat.ok());
  ExpectMatricesBitwiseEqual(*s_view, *s_flat);

  // Out-of-range rows still error (bounds are logical rows).
  EXPECT_EQ(view.NumericMatrixFor(names, {view.num_rows()}).status().code(),
            StatusCode::kOutOfRange);
}

// ----------------------- dictionary invariants -------------------------

TEST(ViewEquivalenceTest, DictionaryRoundTripsThroughCsv) {
  DataFrame df = MakeFrame(80, 11);
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(df, out).ok());

  // Whole-stream reader: interned at parse time.
  std::istringstream in_whole(out.str());
  auto whole = ReadCsv(in_whole);
  ASSERT_TRUE(whole.ok());
  for (size_t r = 0; r < df.num_rows(); ++r) {
    EXPECT_EQ(whole->CategoricalValue(r, "tag").value(),
              df.CategoricalValue(r, "tag").value());
  }

  // Chunked reader: chunks share one persistent dictionary object.
  std::istringstream in_chunks(out.str());
  CsvChunkReader reader(&in_chunks, df.schema());
  const Column* prev_tag = nullptr;
  std::shared_ptr<const std::vector<std::string>> last_dict;
  size_t row = 0;
  for (;;) {
    auto chunk = reader.ReadChunk(17);
    ASSERT_TRUE(chunk.ok()) << chunk.status();
    if (chunk->num_rows() == 0) break;
    auto tag_col = chunk->ColumnByName("tag");
    ASSERT_TRUE(tag_col.ok());
    for (size_t r = 0; r < chunk->num_rows(); ++r, ++row) {
      EXPECT_EQ((*tag_col)->CategoricalAt(r),
                df.CategoricalValue(row, "tag").value());
      // Codes index the dictionary consistently.
      EXPECT_EQ((*tag_col)->dictionary()[(*tag_col)->CodeAt(r)],
                (*tag_col)->CategoricalAt(r));
    }
    if (last_dict != nullptr) {
      // Once the categorical domain has been seen, later chunks share
      // the same dictionary object (pointer equality, not just values).
      EXPECT_EQ(last_dict, (*tag_col)->shared_dictionary());
    }
    last_dict = (*tag_col)->shared_dictionary();
    (void)prev_tag;
  }
  EXPECT_EQ(row, df.num_rows());
}

TEST(ViewEquivalenceTest, DistinctValuesOnViewPreservesViewOrder) {
  DataFrame df;
  CCS_CHECK(df.AddCategoricalColumn(
                  "c", {"b", "a", "c", "a", "d", "b"})
                .ok());
  // View reorders rows: first appearance must follow the VIEW's order.
  DataFrame view = df.Gather({4, 2, 0, 1});
  auto col = view.ColumnByName("c");
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col)->DistinctValues(),
            (std::vector<std::string>{"d", "c", "b", "a"}));
}

TEST(ViewEquivalenceTest, ConcatOfViewsMatchesDeepCopies) {
  DataFrame df = MakeFrame(100, 12);
  DataFrame a = df.Slice(0, 30);
  DataFrame b = df.Gather({99, 50, 50, 7});
  auto concat = a.Concat(b);
  ASSERT_TRUE(concat.ok());
  EXPECT_FALSE(concat->is_view());  // Concat materializes.
  std::vector<size_t> rows;
  for (size_t i = 0; i < 30; ++i) rows.push_back(i);
  for (size_t i : {99, 50, 50, 7}) rows.push_back(i);
  ExpectFramesBitwiseEqual(*concat, GatherByCopy(df, rows));
}

// ----------------- constraint pipeline over views ----------------------

TEST(ViewEquivalenceTest, SynthesisOnViewsBitwiseMatchesMaterialized) {
  DataFrame df = MakeFrame(600, 13);
  core::Synthesizer synthesizer;
  for (size_t threads : {1u, 4u}) {
    common::SetDefaultThreadCount(threads);
    // Full compound synthesis (global + disjunctions over partitions,
    // which are views) on a view vs. its deep materialization.
    DataFrame view = df.Filter(
        [&](size_t i) { return df.NumericValue(i, "x").value() < 8.0; });
    auto from_view = synthesizer.Synthesize(view);
    auto from_flat = synthesizer.Synthesize(view.Materialize());
    ASSERT_TRUE(from_view.ok()) << from_view.status();
    ASSERT_TRUE(from_flat.ok()) << from_flat.status();
    EXPECT_TRUE(core::ConstraintsBitwiseEqual(*from_view, *from_flat))
        << "threads=" << threads;
  }
  common::SetDefaultThreadCount(0);
}

TEST(ViewEquivalenceTest, ViolationAllOnViewsBitwiseMatchesMaterialized) {
  DataFrame train = MakeFrame(500, 14);
  core::Synthesizer synthesizer;
  auto constraint = synthesizer.Synthesize(train);
  ASSERT_TRUE(constraint.ok());

  DataFrame serving = MakeFrame(400, 15);
  DataFrame view = serving.Gather([&] {
    std::vector<size_t> rows;
    for (size_t i = 0; i < serving.num_rows(); i += 2) rows.push_back(i);
    return rows;
  }());

  for (size_t threads : {1u, 4u}) {
    common::SetDefaultThreadCount(threads);
    auto v_view = constraint->ViolationAll(view);
    auto v_flat = constraint->ViolationAll(view.Materialize());
    ASSERT_TRUE(v_view.ok());
    ASSERT_TRUE(v_flat.ok());
    ASSERT_EQ(v_view->size(), v_flat->size());
    for (size_t i = 0; i < v_view->size(); ++i) {
      EXPECT_TRUE(BitsEqual((*v_view)[i], (*v_flat)[i]))
          << "row " << i << " threads " << threads;
    }
  }
  common::SetDefaultThreadCount(0);
}

// ------------------------ projection evaluation ------------------------

void ExpectVectorsBitwiseEqual(const linalg::Vector& a,
                               const linalg::Vector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(BitsEqual(a[i], b[i])) << "index " << i;
  }
}

TEST(ProjectionViewTest, EvaluateAllMatchesAlignedKernel) {
  DataFrame df = MakeFrame(350, 21);
  std::vector<std::string> names = {"x", "y", "z"};
  auto projection =
      core::Projection::Create(names, linalg::Vector({0.75, -0.5, 0.25}));
  ASSERT_TRUE(projection.ok());
  auto matrix = df.NumericMatrixFor(names);
  ASSERT_TRUE(matrix.ok());
  // Finite data: EvaluateAll's column walk and the materialized
  // matrix-vector kernel run the same accumulation order (ascending
  // term index, multiply-then-add, no FMA), so the bits agree even
  // though they are separately compiled.
  linalg::Vector aligned = matrix->Multiply(projection->coefficients());
  DataFrame view = df.Filter([](size_t i) { return i % 3 != 1; });
  auto view_matrix = view.NumericMatrixFor(names);
  ASSERT_TRUE(view_matrix.ok());
  linalg::Vector view_aligned =
      view_matrix->Multiply(projection->coefficients());
  for (size_t threads : {1u, 4u}) {
    common::SetDefaultThreadCount(threads);
    auto all = projection->EvaluateAll(df);
    ASSERT_TRUE(all.ok()) << all.status();
    ExpectVectorsBitwiseEqual(*all, aligned);
    auto all_view = projection->EvaluateAll(view);
    ASSERT_TRUE(all_view.ok());
    ExpectVectorsBitwiseEqual(*all_view, view_aligned);
    // And row by row against the by-name Evaluate.
    for (size_t r = 0; r < view.num_rows(); ++r) {
      auto one = projection->Evaluate(view, r);
      ASSERT_TRUE(one.ok());
      EXPECT_TRUE(BitsEqual((*all_view)[r], *one)) << "row " << r;
    }
  }
  common::SetDefaultThreadCount(0);
}

}  // namespace
}  // namespace ccs::dataframe
