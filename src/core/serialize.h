// Constraint serialization: pretty text, SQL CHECK clauses, and the
// one exact profile codec, which stream checkpoints reuse for their
// adopted profile.
//
// The paper (Appendix G) notes that the simplicity of the conformance
// language lets constraints be enforced as SQL CHECK constraints to guard
// inserts; ToSqlCheck emits that form.

#ifndef CCS_CORE_SERIALIZE_H_
#define CCS_CORE_SERIALIZE_H_

#include <string>

#include "common/line_reader.h"
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

/// Versioned line-oriented serialization (`ccs-constraint v2`) that
/// round-trips exactly: names are JSON string literals and every simple
/// constraint is one AppendSimple block.
std::string Serialize(const ConformanceConstraint& constraint);

/// Parses the output of Serialize. Returns InvalidArgument on malformed
/// or version-mismatched input.
StatusOr<ConformanceConstraint> Deserialize(const std::string& text);

/// Appends the exact text of a simple constraint, the block profiles and
/// checkpoints share: `simple <conjuncts> <attrs>`, one `a "<name>"`
/// line per attribute (common::EscapeJson), then one `c` line per
/// conjunct holding lb, ub, mean, stddev, importance and each
/// coefficient as HexBits(DoubleBits(v)), NaN payloads included.
void AppendSimple(const SimpleConstraint& constraint, std::string* out);

/// Reads one AppendSimple block. InvalidArgument on a malformed line or
/// count, or a conjunct BoundedConstraint::Create refuses.
StatusOr<SimpleConstraint> ReadSimple(common::LineReader* reader);

}  // namespace ccs::core

#endif  // CCS_CORE_SERIALIZE_H_
