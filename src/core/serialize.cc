#include "core/serialize.h"

#include <cstdio>
#include <optional>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/string_util.h"

namespace ccs::core {

namespace {

// Round-trippable decimal for SQL CHECK clauses.
std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrettySimple(const SimpleConstraint& c, const std::string& indent,
                  std::ostringstream& os) {
  for (const BoundedConstraint& b : c.conjuncts()) {
    os << indent << FormatDouble(b.lb()) << " <= "
       << b.projection().ToString() << " <= " << FormatDouble(b.ub())
       << "   [mean=" << FormatDouble(b.mean())
       << ", std=" << FormatDouble(b.stddev())
       << ", weight=" << FormatDouble(b.importance()) << "]\n";
  }
}

std::string SqlProjection(const Projection& p) {
  std::ostringstream os;
  bool first = true;
  for (size_t j = 0; j < p.attribute_names().size(); ++j) {
    double coef = p.coefficients()[j];
    if (coef == 0.0) continue;
    if (!first) os << " + ";
    os << "(" << Num(coef) << " * \"" << p.attribute_names()[j] << "\")";
    first = false;
  }
  if (first) os << "0";
  return os.str();
}

std::string SqlSimple(const SimpleConstraint& c) {
  std::ostringstream os;
  bool first = true;
  for (const BoundedConstraint& b : c.conjuncts()) {
    if (!first) os << " AND ";
    std::string proj = SqlProjection(b.projection());
    os << "(" << proj << " BETWEEN " << Num(b.lb()) << " AND " << Num(b.ub())
       << ")";
    first = false;
  }
  if (first) os << "TRUE";
  return os.str();
}

}  // namespace

std::string ToPrettyString(const SimpleConstraint& constraint) {
  std::ostringstream os;
  PrettySimple(constraint, "", os);
  return os.str();
}

std::string ToPrettyString(const DisjunctiveConstraint& constraint) {
  std::ostringstream os;
  for (const auto& [value, simple] : constraint.cases()) {
    os << constraint.attribute() << " = \"" << value << "\" |>\n";
    PrettySimple(simple, "    ", os);
  }
  return os.str();
}

std::string ToPrettyString(const ConformanceConstraint& constraint) {
  std::ostringstream os;
  if (constraint.has_global()) {
    os << "GLOBAL:\n";
    PrettySimple(constraint.global(), "  ", os);
  }
  for (const DisjunctiveConstraint& d : constraint.disjunctions()) {
    os << "DISJUNCTION on " << d.attribute() << ":\n";
    for (const auto& [value, simple] : d.cases()) {
      os << "  " << d.attribute() << " = \"" << value << "\" |>\n";
      PrettySimple(simple, "      ", os);
    }
  }
  return os.str();
}

std::string ToSqlCheck(const SimpleConstraint& constraint) {
  return SqlSimple(constraint);
}

std::string ToSqlCheck(const ConformanceConstraint& constraint) {
  std::ostringstream os;
  bool first = true;
  if (constraint.has_global()) {
    os << "(" << SqlSimple(constraint.global()) << ")";
    first = false;
  }
  for (const DisjunctiveConstraint& d : constraint.disjunctions()) {
    if (!first) os << " AND ";
    os << "(CASE";
    for (const auto& [value, simple] : d.cases()) {
      os << " WHEN \"" << d.attribute() << "\" = '" << value << "' THEN ("
         << SqlSimple(simple) << ")";
    }
    os << " ELSE FALSE END)";
    first = false;
  }
  if (first) os << "TRUE";
  return os.str();
}

namespace {

constexpr char kHeader[] = "ccs-constraint v2";

}  // namespace

void AppendSimple(const SimpleConstraint& constraint, std::string* out) {
  *out += "simple " + std::to_string(constraint.conjuncts().size()) + " " +
          std::to_string(constraint.attribute_names().size()) + "\n";
  for (const std::string& name : constraint.attribute_names()) {
    *out += "a \"" + common::EscapeJson(name) + "\"\n";
  }
  for (const BoundedConstraint& b : constraint.conjuncts()) {
    *out += "c";
    for (double v : {b.lb(), b.ub(), b.mean(), b.stddev(), b.importance()}) {
      *out += " " + HexBits(DoubleBits(v));
    }
    const linalg::Vector& coefs = b.projection().coefficients();
    for (size_t j = 0; j < coefs.size(); ++j) {
      *out += " " + HexBits(DoubleBits(coefs[j]));
    }
    *out += "\n";
  }
}

StatusOr<SimpleConstraint> ReadSimple(common::LineReader* reader) {
  auto error = [reader](const std::string& what) {
    return Status::InvalidArgument("constraint block line " +
                                   std::to_string(reader->line_number()) +
                                   ": " + what);
  };
  CCS_ASSIGN_OR_RETURN(std::string line, reader->Next());
  std::vector<std::string> fields = Split(line, ' ');
  std::optional<uint64_t> num_conjuncts, num_attrs;
  if (fields.size() == 3 && fields[0] == "simple") {
    num_conjuncts = ParseUint(fields[1]);
    num_attrs = ParseUint(fields[2]);
  }
  if (!num_conjuncts.has_value() || !num_attrs.has_value()) {
    return error("bad simple header");
  }
  // No reserve() from the header's counts: they are untrusted, and a
  // hostile count must fail on a missing line, not in the allocator.
  std::vector<std::string> names;
  for (uint64_t i = 0; i < *num_attrs; ++i) {
    CCS_ASSIGN_OR_RETURN(line, reader->Next());
    if (!StartsWith(line, "a ")) return error("expected attribute line");
    CCS_ASSIGN_OR_RETURN(names.emplace_back(),
                         common::ParseJsonString(line.substr(2),
                                                 "constraint block name"));
  }
  std::vector<BoundedConstraint> conjuncts;
  for (uint64_t i = 0; i < *num_conjuncts; ++i) {
    CCS_ASSIGN_OR_RETURN(line, reader->Next());
    // "c lb ub mean stddev importance coef...": five statistics, then
    // one coefficient per attribute, separated by single spaces.
    fields = Split(line, ' ');
    if (fields.size() != 6 + names.size() || fields[0] != "c") {
      return error("bad conjunct line");
    }
    std::vector<double> v(fields.size());
    for (size_t f = 1; f < fields.size(); ++f) {
      const std::optional<double> value = ParseHexBits(fields[f]);
      if (!value.has_value()) return error("bad bits '" + fields[f] + "'");
      v[f] = *value;
    }
    CCS_ASSIGN_OR_RETURN(
        Projection proj,
        Projection::Create(names, linalg::Vector(std::vector<double>(
                                      v.begin() + 6, v.end()))));
    // BoundedConstraint re-derives its alpha scaling from the stddev
    // bits, so a round-tripped constraint stays ConstraintsBitwiseEqual.
    CCS_ASSIGN_OR_RETURN(conjuncts.emplace_back(),
                         BoundedConstraint::Create(std::move(proj), v[1], v[2],
                                                   v[3], v[4], v[5]));
  }
  return SimpleConstraint::Create(std::move(names), std::move(conjuncts));
}

std::string Serialize(const ConformanceConstraint& constraint) {
  std::string out = std::string(kHeader) + "\n";
  out += constraint.has_global() ? "global 1\n" : "global 0\n";
  if (constraint.has_global()) AppendSimple(constraint.global(), &out);
  for (const DisjunctiveConstraint& d : constraint.disjunctions()) {
    out += "disj " + std::to_string(d.cases().size()) + " \"" +
           common::EscapeJson(d.attribute()) + "\"\n";
    for (const auto& [value, simple] : d.cases()) {
      out += "value \"" + common::EscapeJson(value) + "\"\n";
      AppendSimple(simple, &out);
    }
  }
  out += "end\n";
  return out;
}

StatusOr<ConformanceConstraint> Deserialize(const std::string& text) {
  common::LineReader reader(text, "Deserialize: unexpected end of input");
  CCS_ASSIGN_OR_RETURN(std::string line, reader.Next());
  if (line != kHeader) {
    return Status::InvalidArgument("Deserialize: bad header '" + line +
                                   "': expected " + kHeader +
                                   " (re-run ccsynth learn on a v1 profile)");
  }
  CCS_ASSIGN_OR_RETURN(line, reader.Next());
  if (line != "global 0" && line != "global 1") {
    return Status::InvalidArgument("Deserialize: bad global line");
  }
  SimpleConstraint global;
  if (line == "global 1") {
    CCS_ASSIGN_OR_RETURN(global, ReadSimple(&reader));
  }
  std::vector<DisjunctiveConstraint> disjunctions;
  while (true) {
    CCS_ASSIGN_OR_RETURN(line, reader.Next());
    if (line == "end") break;
    // "disj <cases> <quoted attribute>"
    const size_t space = line.find(' ', 5);
    const std::optional<uint64_t> num_cases =
        StartsWith(line, "disj ") && space != std::string::npos
            ? ParseUint(std::string_view(line).substr(5, space - 5))
            : std::nullopt;
    if (!num_cases.has_value()) {
      return Status::InvalidArgument("Deserialize: bad disjunction line");
    }
    CCS_ASSIGN_OR_RETURN(std::string attribute,
                         common::ParseJsonString(line.substr(space + 1),
                                                 "Deserialize: disj"));
    std::map<std::string, SimpleConstraint> cases;
    for (uint64_t i = 0; i < *num_cases; ++i) {
      CCS_ASSIGN_OR_RETURN(line, reader.Next());
      if (!StartsWith(line, "value ")) {
        return Status::InvalidArgument("Deserialize: expected value line");
      }
      CCS_ASSIGN_OR_RETURN(
          std::string value,
          common::ParseJsonString(line.substr(6), "Deserialize: value"));
      CCS_ASSIGN_OR_RETURN(cases[std::move(value)], ReadSimple(&reader));
    }
    disjunctions.emplace_back(std::move(attribute), std::move(cases));
  }
  return ConformanceConstraint(std::move(global), std::move(disjunctions));
}

}  // namespace ccs::core
