// Constraint serialization: pretty text, SQL CHECK clauses, and a
// versioned machine-readable round-trip format.
//
// The paper (Appendix G) notes that the simplicity of the conformance
// language lets constraints be enforced as SQL CHECK constraints to guard
// inserts; ToSqlCheck emits that form.

#ifndef CCS_CORE_SERIALIZE_H_
#define CCS_CORE_SERIALIZE_H_

#include <string>

#include "common/statusor.h"
#include "core/constraint.h"

namespace ccs::core {

/// Multi-line human-readable rendering of a constraint, e.g.
///   -5 <= AT - DT - DUR <= 5   [mean=0, std=3.6, weight=0.42]
std::string ToPrettyString(const SimpleConstraint& constraint);
std::string ToPrettyString(const DisjunctiveConstraint& constraint);
std::string ToPrettyString(const ConformanceConstraint& constraint);

/// A SQL boolean expression usable as a CHECK constraint. Categorical
/// switches become CASE WHEN chains; unseen values fail the check.
std::string ToSqlCheck(const SimpleConstraint& constraint);
std::string ToSqlCheck(const ConformanceConstraint& constraint);

/// Versioned line-oriented serialization that round-trips exactly:
/// numbers are written with %.17g, which reparses to the same bits, and
/// non-finite values as inf, -inf, nan and -nan (a NaN keeps its sign,
/// not its payload).
std::string Serialize(const ConformanceConstraint& constraint);

/// Parses the output of Serialize. Returns InvalidArgument on malformed
/// or version-mismatched input.
StatusOr<ConformanceConstraint> Deserialize(const std::string& text);

}  // namespace ccs::core

#endif  // CCS_CORE_SERIALIZE_H_
