#include "core/projection.h"

#include <cmath>
#include <sstream>

#include "common/string_util.h"

namespace ccs::core {

StatusOr<Projection> Projection::Create(
    std::vector<std::string> attribute_names, linalg::Vector coefficients) {
  if (attribute_names.size() != coefficients.size()) {
    return Status::InvalidArgument(
        "Projection: names/coefficients size mismatch");
  }
  if (attribute_names.empty()) {
    return Status::InvalidArgument("Projection: empty attribute list");
  }
  return Projection(std::move(attribute_names), std::move(coefficients));
}

StatusOr<double> Projection::Evaluate(const dataframe::DataFrame& df,
                                      size_t row) const {
  double acc = 0.0;
  for (size_t j = 0; j < names_.size(); ++j) {
    CCS_ASSIGN_OR_RETURN(double v, df.NumericValue(row, names_[j]));
    // ccs-lint: allow(fp-accumulate): by-name tuple dot product in
    // declared attribute order — the same term order as the aligned
    // Vector::Dot path, and serial in every caller.
    acc += coefficients_[j] * v;
  }
  return acc;
}

namespace {

// out[r] = sum over j ascending of coefficients[j] * view(r, j), seeded
// from 0.0, multiply-then-add: per-row Evaluate's term order, so each
// entry has the bits Evaluate gives its row. Walks one gathered column
// at a time.
CCS_NOINLINE void EvaluateRows(const linalg::MatrixView& view,
                               const linalg::Vector& coefficients,
                               linalg::Vector* out) {
  std::vector<double> column(view.rows());
  for (size_t j = 0; j < view.cols(); ++j) {
    view.MaterializeColumn(j, column.data());
    for (size_t r = 0; r < column.size(); ++r) {
      (*out)[r] += coefficients[j] * column[r];
    }
  }
}

}  // namespace

StatusOr<linalg::Vector> Projection::EvaluateAll(
    const dataframe::DataFrame& df) const {
  CCS_ASSIGN_OR_RETURN(linalg::MatrixView view, df.NumericViewFor(names_));
  linalg::Vector out(view.rows());
  EvaluateRows(view, coefficients_, &out);
  return out;
}

StatusOr<Projection> Projection::Normalized() const {
  double norm = coefficients_.Norm();
  if (norm <= 0.0) {
    return Status::FailedPrecondition("Projection: zero coefficient vector");
  }
  linalg::Vector scaled = coefficients_;
  scaled.Scale(1.0 / norm);
  return Projection(names_, std::move(scaled));
}

std::string Projection::ToString() const {
  constexpr double kElisionThreshold = 5e-7;
  std::ostringstream os;
  bool first = true;
  bool any = false;
  for (size_t j = 0; j < names_.size(); ++j) {
    double c = coefficients_[j];
    if (std::abs(c) < kElisionThreshold) continue;
    any = true;
    if (first) {
      if (c < 0.0) os << "-";
    } else {
      os << (c < 0.0 ? " - " : " + ");
    }
    double mag = std::abs(c);
    if (std::abs(mag - 1.0) > 1e-12) {
      os << FormatDouble(mag) << "*";
    }
    os << names_[j];
    first = false;
  }
  if (!any) {
    // All coefficients tiny: print them anyway rather than an empty string.
    for (size_t j = 0; j < names_.size(); ++j) {
      if (j > 0) os << " + ";
      os << FormatDouble(coefficients_[j]) << "*" << names_[j];
    }
  }
  return os.str();
}

}  // namespace ccs::core
