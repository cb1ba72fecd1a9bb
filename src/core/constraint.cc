#include "core/constraint.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/parallel.h"

namespace ccs::core {

namespace {

// Cap on alpha when sigma(F(D)) = 0 ("a large positive number", §3.2).
constexpr double kMaxAlpha = 1e12;

// eta(z) = 1 - e^{-z}: monotone map from [0, inf) to [0, 1).
double Eta(double z) { return 1.0 - std::exp(-z); }

}  // namespace

BoundedConstraint::BoundedConstraint(Projection projection, double lb,
                                     double ub, double mean, double stddev,
                                     double importance)
    : projection_(std::move(projection)),
      lb_(lb),
      ub_(ub),
      mean_(mean),
      stddev_(stddev),
      importance_(importance) {
  CCS_CHECK_LE(lb_, ub_);
  CCS_CHECK_GE(stddev_, 0.0);
  alpha_ = (stddev_ > 0.0) ? std::min(1.0 / stddev_, kMaxAlpha) : kMaxAlpha;
}

StatusOr<BoundedConstraint> BoundedConstraint::Create(Projection projection,
                                                     double lb, double ub,
                                                     double mean,
                                                     double stddev,
                                                     double importance) {
  if (!(lb <= ub)) {
    return Status::InvalidArgument("BoundedConstraint: need lb <= ub");
  }
  if (!(stddev >= 0.0)) {
    return Status::InvalidArgument("BoundedConstraint: need stddev >= 0");
  }
  return BoundedConstraint(std::move(projection), lb, ub, mean, stddev,
                           importance);
}

bool BoundedConstraint::IsSatisfiedAligned(
    const linalg::Vector& numeric_tuple) const {
  double v = projection_.EvaluateAligned(numeric_tuple);
  return v >= lb_ && v <= ub_;
}

double BoundedConstraint::ViolationAligned(
    const linalg::Vector& numeric_tuple) const {
  return ViolationOfValue(projection_.EvaluateAligned(numeric_tuple));
}

double BoundedConstraint::ViolationOfValue(double value) const {
  double excess = std::max({0.0, value - ub_, lb_ - value});
  // In-bounds tuples (the conforming majority) short-circuit: exp(-0)
  // is exactly 1, so the full formula yields exactly +0.0 — returning
  // it directly skips the libm call without changing a single bit on
  // any path (alpha_ is always finite). A NaN value also lands here,
  // exactly as it always has: NaN comparisons are false, so the max()
  // above keeps its 0.0 seed and a NaN projection scores as fully
  // conforming (+0.0) on every path.
  if (excess == 0.0) return 0.0;
  return Eta(alpha_ * excess);
}

StatusOr<SimpleConstraint> SimpleConstraint::Create(
    std::vector<std::string> attribute_names,
    std::vector<BoundedConstraint> conjuncts) {
  for (const BoundedConstraint& c : conjuncts) {
    if (c.projection().attribute_names() != attribute_names) {
      return Status::InvalidArgument(
          "SimpleConstraint: conjunct attribute order mismatch");
    }
  }
  SimpleConstraint out;
  out.names_ = std::move(attribute_names);
  out.conjuncts_ = std::move(conjuncts);
  return out;
}

bool SimpleConstraint::IsSatisfiedAligned(
    const linalg::Vector& numeric_tuple) const {
  for (const BoundedConstraint& c : conjuncts_) {
    if (!c.IsSatisfiedAligned(numeric_tuple)) return false;
  }
  return true;
}

double SimpleConstraint::ViolationAligned(
    const linalg::Vector& numeric_tuple) const {
  double acc = 0.0;
  for (const BoundedConstraint& c : conjuncts_) {
    // ccs-lint: allow(fp-accumulate): importance-weighted fold in fixed
    // conjunct order — every caller (serial or pool lane) scores a whole
    // tuple with this one compiled loop, so the sum cannot diverge.
    acc += c.importance() * c.ViolationAligned(numeric_tuple);
  }
  // The importances sum to 1 only up to rounding; keep the contract that
  // violations live in [0, 1] exactly.
  return std::clamp(acc, 0.0, 1.0);
}

linalg::Matrix SimpleConstraint::CoefficientMatrix() const {
  linalg::Matrix coef(names_.size(), conjuncts_.size());
  for (size_t k = 0; k < conjuncts_.size(); ++k) {
    const linalg::Vector& c = conjuncts_[k].projection().coefficients();
    for (size_t j = 0; j < c.size(); ++j) coef.At(j, k) = c[j];
  }
  return coef;
}

CCS_NOINLINE void SimpleConstraint::ViolationRowRange(
    const linalg::MatrixView& data, const linalg::Matrix& coef, size_t begin,
    size_t end, double* out) const {
  const linalg::Matrix values = data.MultiplyRowRange(begin, end, coef);
  for (size_t i = 0; i < end - begin; ++i) {
    // The per-row fold of ViolationAligned, term for term.
    double acc = 0.0;
    for (size_t k = 0; k < conjuncts_.size(); ++k) {
      acc += conjuncts_[k].importance() *
             conjuncts_[k].ViolationOfValue(values.At(i, k));
    }
    out[i] = std::clamp(acc, 0.0, 1.0);
  }
}

linalg::Vector SimpleConstraint::ViolationAllAligned(
    const linalg::MatrixView& data, size_t num_threads) const {
  linalg::Vector out(data.rows());
  if (conjuncts_.empty() || data.rows() == 0) return out;
  const linalg::Matrix coef = CoefficientMatrix();
  common::ParallelFor(
      data.rows(),
      [&](size_t begin, size_t end) {
        ViolationRowRange(data, coef, begin, end, &out[begin]);
      },
      common::ParallelOptions{num_threads});
  return out;
}

StatusOr<double> SimpleConstraint::Violation(const dataframe::DataFrame& df,
                                             size_t row) const {
  if (row >= df.num_rows()) {
    return Status::OutOfRange("SimpleConstraint::Violation: row out of range");
  }
  linalg::Vector tuple(names_.size());
  for (size_t j = 0; j < names_.size(); ++j) {
    CCS_ASSIGN_OR_RETURN(tuple[j], df.NumericValue(row, names_[j]));
  }
  return ViolationAligned(tuple);
}

StatusOr<linalg::Vector> SimpleConstraint::ViolationAll(
    const dataframe::DataFrame& df, size_t num_threads) const {
  // Walk the frame's columnar storage in place (zero-copy even when df
  // is a view); the view borrows df and dies before it.
  CCS_ASSIGN_OR_RETURN(linalg::MatrixView data, df.NumericViewFor(names_));
  return ViolationAllAligned(data, num_threads);
}

StatusOr<const SimpleConstraint*> DisjunctiveConstraint::Simplify(
    const dataframe::DataFrame& df, size_t row) const {
  CCS_ASSIGN_OR_RETURN(std::string value,
                       df.CategoricalValue(row, attribute_));
  auto it = cases_.find(value);
  if (it == cases_.end()) {
    return Status::NotFound("no case for " + attribute_ + " = " + value);
  }
  return &it->second;
}

StatusOr<double> DisjunctiveConstraint::Violation(
    const dataframe::DataFrame& df, size_t row) const {
  auto simplified = Simplify(df, row);
  if (!simplified.ok()) {
    if (simplified.status().code() == StatusCode::kNotFound) {
      return 1.0;  // simp undefined => maximal violation (paper §3.2).
    }
    return simplified.status();
  }
  return (*simplified.value()).Violation(df, row);
}

StatusOr<bool> DisjunctiveConstraint::IsSatisfied(
    const dataframe::DataFrame& df, size_t row) const {
  CCS_ASSIGN_OR_RETURN(double v, Violation(df, row));
  return v == 0.0;
}

StatusOr<linalg::Vector> DisjunctiveConstraint::ViolationAll(
    const dataframe::DataFrame& df, size_t num_threads) const {
  CCS_ASSIGN_OR_RETURN(const dataframe::Column* col,
                       df.ColumnByName(attribute_));
  if (col->is_numeric()) {
    return Status::InvalidArgument(
        "DisjunctiveConstraint: switch attribute must be categorical");
  }
  // Unseen switch values default to maximal violation (simp undefined).
  linalg::Vector out(df.num_rows(), 1.0);
  if (cases_.empty() || df.num_rows() == 0) return out;

  // One plan per case named by a dictionary entry, built before any lane
  // starts: its coefficient matrix and its aligned view of the whole
  // frame (zero-copy, borrowing df). The case map is consulted once per
  // distinct value; the per-row passes below compare integer codes.
  struct CasePlan {
    const SimpleConstraint* constraint;
    linalg::Matrix coef;
    linalg::MatrixView data;
    Status aligned;
  };
  constexpr size_t kNoCase = ~size_t{0};
  const std::vector<std::string>& dict = col->dictionary();
  std::vector<size_t> code_plan(dict.size(), kNoCase);
  std::vector<CasePlan> plans;
  bool all_aligned = true;
  for (size_t c = 0; c < dict.size(); ++c) {
    auto it = cases_.find(dict[c]);
    if (it == cases_.end()) continue;
    const SimpleConstraint& constraint = it->second;
    StatusOr<linalg::MatrixView> data =
        df.NumericViewFor(constraint.attribute_names());
    code_plan[c] = plans.size();
    plans.push_back({&constraint, constraint.CoefficientMatrix(), {},
                     data.status()});
    if (data.ok()) plans.back().data = *data;
    all_aligned = all_aligned && data.ok();
  }
  if (!all_aligned) {
    // A case that cannot be aligned fails the call only when some row
    // selects it, as scoring that row alone would.
    for (size_t i = 0; i < df.num_rows(); ++i) {
      const size_t p = code_plan[col->CodeAt(i)];
      if (p != kNoCase && !plans[p].aligned.ok()) return plans[p].aligned;
    }
  }

  // One pass over contiguous row blocks. Each block counting-sorts its
  // rows by case, then scores each case's rows through the serial body
  // over a zero-copy row-subset view. A row's violation depends on its
  // case and its cells alone, so block boundaries cannot change a bit.
  common::ParallelFor(
      df.num_rows(),
      [&](size_t begin, size_t end) {
        std::vector<size_t> offset(plans.size() + 1, 0);
        for (size_t i = begin; i < end; ++i) {
          const size_t p = code_plan[col->CodeAt(i)];
          if (p != kNoCase) ++offset[p + 1];
        }
        for (size_t p = 0; p < plans.size(); ++p) offset[p + 1] += offset[p];
        std::vector<size_t> order(offset.back());
        std::vector<size_t> next(offset.begin(), offset.end() - 1);
        for (size_t i = begin; i < end; ++i) {
          const size_t p = code_plan[col->CodeAt(i)];
          if (p != kNoCase) order[next[p]++] = i;
        }
        std::vector<size_t> rows;
        std::vector<double> violations;
        for (size_t p = 0; p < plans.size(); ++p) {
          if (offset[p] == offset[p + 1]) continue;
          rows.assign(order.begin() + offset[p], order.begin() + offset[p + 1]);
          violations.resize(rows.size());
          plans[p].constraint->ViolationRowRange(
              plans[p].data.RowSubset(&rows), plans[p].coef, 0, rows.size(),
              violations.data());
          for (size_t g = 0; g < rows.size(); ++g) {
            out[rows[g]] = violations[g];
          }
        }
      },
      common::ParallelOptions{num_threads});
  return out;
}

StatusOr<double> ConformanceConstraint::Violation(
    const dataframe::DataFrame& df, size_t row) const {
  size_t groups = num_groups();
  if (groups == 0) {
    return Status::FailedPrecondition(
        "ConformanceConstraint: no constraint groups");
  }
  double acc = 0.0;
  if (has_global()) {
    CCS_ASSIGN_OR_RETURN(double v, global_.Violation(df, row));
    acc += v;
  }
  for (const DisjunctiveConstraint& d : disjunctions_) {
    CCS_ASSIGN_OR_RETURN(double v, d.Violation(df, row));
    // ccs-lint: allow(fp-accumulate): fold over the fixed disjunction
    // order; per-row scoring is serial within a lane by construction.
    acc += v;
  }
  return acc / static_cast<double>(groups);
}

StatusOr<linalg::Vector> ConformanceConstraint::ViolationAll(
    const dataframe::DataFrame& df, size_t num_threads) const {
  size_t groups = num_groups();
  if (groups == 0) {
    return Status::FailedPrecondition(
        "ConformanceConstraint: no constraint groups");
  }
  linalg::Vector acc(df.num_rows());
  if (has_global()) {
    CCS_ASSIGN_OR_RETURN(linalg::Vector v,
                         global_.ViolationAll(df, num_threads));
    acc.Axpy(1.0, v);
  }
  for (const DisjunctiveConstraint& d : disjunctions_) {
    CCS_ASSIGN_OR_RETURN(linalg::Vector v, d.ViolationAll(df, num_threads));
    acc.Axpy(1.0, v);
  }
  // Divide (not multiply by the reciprocal): Violation() computes
  // acc / groups, and the two paths must agree bit for bit.
  for (double& v : acc.data()) v /= static_cast<double>(groups);
  return acc;
}

StatusOr<double> ConformanceConstraint::MeanViolation(
    const dataframe::DataFrame& df, size_t num_threads) const {
  if (df.num_rows() == 0) {
    return Status::InvalidArgument("MeanViolation: empty dataset");
  }
  CCS_ASSIGN_OR_RETURN(linalg::Vector v, ViolationAll(df, num_threads));
  return v.Mean();
}

StatusOr<bool> ConformanceConstraint::IsSatisfied(
    const dataframe::DataFrame& df, size_t row) const {
  CCS_ASSIGN_OR_RETURN(double v, Violation(df, row));
  return v == 0.0;
}

// ------------------- exact (bitwise) constraint equality ----------------
//
// Doubles are compared by BIT PATTERN, not operator==: the parallel
// pipeline promises the SAME bits as the serial one, so -0.0 must not
// pass for +0.0 (== would let that scheduling-order leak through) and a
// NaN parameter must equal an identical copy of itself (== would fail a
// constraint against its own clone).

namespace {

bool BitsEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

bool ConstraintsBitwiseEqual(const BoundedConstraint& a,
                             const BoundedConstraint& b) {
  if (!BitsEqual(a.lb(), b.lb()) || !BitsEqual(a.ub(), b.ub()) ||
      !BitsEqual(a.mean(), b.mean()) || !BitsEqual(a.stddev(), b.stddev()) ||
      !BitsEqual(a.importance(), b.importance())) {
    return false;
  }
  const Projection& pa = a.projection();
  const Projection& pb = b.projection();
  if (pa.attribute_names() != pb.attribute_names()) return false;
  if (pa.coefficients().size() != pb.coefficients().size()) return false;
  for (size_t i = 0; i < pa.coefficients().size(); ++i) {
    if (!BitsEqual(pa.coefficients()[i], pb.coefficients()[i])) return false;
  }
  return true;
}

bool ConstraintsBitwiseEqual(const SimpleConstraint& a,
                             const SimpleConstraint& b) {
  if (a.attribute_names() != b.attribute_names()) return false;
  if (a.conjuncts().size() != b.conjuncts().size()) return false;
  for (size_t i = 0; i < a.conjuncts().size(); ++i) {
    if (!ConstraintsBitwiseEqual(a.conjuncts()[i], b.conjuncts()[i])) {
      return false;
    }
  }
  return true;
}

bool ConstraintsBitwiseEqual(const DisjunctiveConstraint& a,
                             const DisjunctiveConstraint& b) {
  if (a.attribute() != b.attribute()) return false;
  if (a.cases().size() != b.cases().size()) return false;
  auto ita = a.cases().begin();
  auto itb = b.cases().begin();
  for (; ita != a.cases().end(); ++ita, ++itb) {
    if (ita->first != itb->first) return false;
    if (!ConstraintsBitwiseEqual(ita->second, itb->second)) return false;
  }
  return true;
}

bool ConstraintsBitwiseEqual(const ConformanceConstraint& a,
                             const ConformanceConstraint& b) {
  if (!ConstraintsBitwiseEqual(a.global(), b.global())) return false;
  if (a.disjunctions().size() != b.disjunctions().size()) return false;
  for (size_t i = 0; i < a.disjunctions().size(); ++i) {
    if (!ConstraintsBitwiseEqual(a.disjunctions()[i], b.disjunctions()[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace ccs::core
