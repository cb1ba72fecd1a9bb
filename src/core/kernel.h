// Polynomial feature maps for nonlinear conformance constraints (§5.1).
//
// The paper limits evaluation to the linear kernel but notes the framework
// extends to nonlinear constraints via kernelized PCA. We implement the
// explicit degree-2 polynomial feature map: augmenting the dataset with
// squares and pairwise products makes LINEAR constraints over the expanded
// space express QUADRATIC constraints over the original attributes.

#ifndef CCS_CORE_KERNEL_H_
#define CCS_CORE_KERNEL_H_

#include "common/statusor.h"
#include "dataframe/dataframe.h"

namespace ccs::core {

/// Returns a copy of `df` whose numeric attributes are expanded with
/// degree-2 terms, in this column order: the linear terms, then the
/// squares ("<a>^2"), then the cross terms ("<a>*<b>", a before b in
/// schema order). Categorical attributes pass through unchanged.
/// Synthesizing on the result yields nonlinear conformance constraints.
StatusOr<dataframe::DataFrame> ExpandPolynomial(const dataframe::DataFrame& df);

}  // namespace ccs::core

#endif  // CCS_CORE_KERNEL_H_
