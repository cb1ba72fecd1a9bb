#include "core/serialize.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/line_reader.h"
#include "common/string_util.h"

namespace ccs::core {

namespace {

// Round-trippable double formatting.
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

void SerializeSimple(const SimpleConstraint& c, std::ostringstream& os) {
  os << "simple " << c.conjuncts().size() << " "
     << c.attribute_names().size() << "\n";
  for (const std::string& name : c.attribute_names()) {
    os << "a " << name << "\n";
  }
  for (const BoundedConstraint& b : c.conjuncts()) {
    os << "c " << Num(b.lb()) << " " << Num(b.ub()) << " " << Num(b.mean())
       << " " << Num(b.stddev()) << " " << Num(b.importance());
    for (size_t j = 0; j < b.projection().coefficients().size(); ++j) {
      os << " " << Num(b.projection().coefficients()[j]);
    }
    os << "\n";
  }
}

// Parses one field Num wrote. from_chars reads back every %.17g form,
// including the inf, -inf, nan and -nan of non-finite values, which
// istream >> rejects; the whole field must be consumed.
bool ParseNum(std::string_view field, double* out) {
  const char* end = field.data() + field.size();
  auto [ptr, ec] = std::from_chars(field.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

StatusOr<SimpleConstraint> ParseSimple(common::LineReader* reader,
                                       const std::string& header) {
  std::istringstream hs(header);
  std::string tag;
  size_t num_conjuncts = 0, num_attrs = 0;
  hs >> tag >> num_conjuncts >> num_attrs;
  if (tag != "simple" || hs.fail()) {
    return Status::InvalidArgument("Deserialize: bad simple header");
  }
  // No reserve() from the header's counts: they are untrusted, and a
  // hostile count must fail on a missing line, not in the allocator.
  std::vector<std::string> names;
  for (size_t i = 0; i < num_attrs; ++i) {
    CCS_ASSIGN_OR_RETURN(std::string line, reader->Next());
    if (!StartsWith(line, "a ")) {
      return Status::InvalidArgument("Deserialize: expected attribute line");
    }
    names.push_back(line.substr(2));
  }
  std::vector<BoundedConstraint> conjuncts;
  for (size_t i = 0; i < num_conjuncts; ++i) {
    CCS_ASSIGN_OR_RETURN(std::string line, reader->Next());
    // "c lb ub mean stddev importance coef...": five statistics, then
    // one coefficient per attribute, separated by whitespace.
    std::istringstream ls(line);
    std::vector<std::string> fields;
    for (std::string field; ls >> field;) fields.push_back(std::move(field));
    if (fields.size() != 6 + num_attrs || fields[0] != "c") {
      return Status::InvalidArgument("Deserialize: bad conjunct line");
    }
    double stats[5];
    linalg::Vector coefs(num_attrs);
    for (size_t f = 1; f < fields.size(); ++f) {
      if (!ParseNum(fields[f], f < 6 ? &stats[f - 1] : &coefs[f - 6])) {
        return Status::InvalidArgument("Deserialize: bad number '" +
                                       fields[f] + "'");
      }
    }
    CCS_ASSIGN_OR_RETURN(Projection proj,
                         Projection::Create(names, std::move(coefs)));
    CCS_ASSIGN_OR_RETURN(
        BoundedConstraint conjunct,
        BoundedConstraint::Create(std::move(proj), stats[0], stats[1],
                                  stats[2], stats[3], stats[4]));
    conjuncts.push_back(std::move(conjunct));
  }
  return SimpleConstraint::Create(std::move(names), std::move(conjuncts));
}

}  // namespace

std::string Serialize(const ConformanceConstraint& constraint) {
  std::ostringstream os;
  os << "ccs-constraint v1\n";
  os << "global " << (constraint.has_global() ? 1 : 0) << "\n";
  if (constraint.has_global()) {
    SerializeSimple(constraint.global(), os);
  }
  for (const DisjunctiveConstraint& d : constraint.disjunctions()) {
    os << "disj " << d.cases().size() << " " << d.attribute() << "\n";
    for (const auto& [value, simple] : d.cases()) {
      os << "value " << value << "\n";
      SerializeSimple(simple, os);
    }
  }
  os << "end\n";
  return os.str();
}

StatusOr<ConformanceConstraint> Deserialize(const std::string& text) {
  common::LineReader reader(text, "Deserialize: unexpected end of input");
  CCS_ASSIGN_OR_RETURN(std::string header, reader.Next());
  if (header != "ccs-constraint v1") {
    return Status::InvalidArgument("Deserialize: bad header: " + header);
  }
  CCS_ASSIGN_OR_RETURN(std::string global_line, reader.Next());
  std::istringstream gs(global_line);
  std::string tag;
  int has_global = 0;
  gs >> tag >> has_global;
  if (tag != "global" || gs.fail()) {
    return Status::InvalidArgument("Deserialize: bad global line");
  }
  SimpleConstraint global;
  if (has_global != 0) {
    CCS_ASSIGN_OR_RETURN(std::string sheader, reader.Next());
    CCS_ASSIGN_OR_RETURN(global, ParseSimple(&reader, sheader));
  }
  std::vector<DisjunctiveConstraint> disjunctions;
  while (true) {
    CCS_ASSIGN_OR_RETURN(std::string line, reader.Next());
    if (line == "end") break;
    std::istringstream ds(line);
    std::string dtag;
    size_t num_cases = 0;
    ds >> dtag >> num_cases;
    if (dtag != "disj" || ds.fail()) {
      return Status::InvalidArgument("Deserialize: bad disjunction line");
    }
    std::string attribute;
    std::getline(ds, attribute);
    attribute = std::string(Trim(attribute));
    if (attribute.empty()) {
      return Status::InvalidArgument("Deserialize: missing disj attribute");
    }
    std::map<std::string, SimpleConstraint> cases;
    for (size_t i = 0; i < num_cases; ++i) {
      CCS_ASSIGN_OR_RETURN(std::string vline, reader.Next());
      if (!StartsWith(vline, "value ")) {
        return Status::InvalidArgument("Deserialize: expected value line");
      }
      std::string value = vline.substr(6);
      CCS_ASSIGN_OR_RETURN(std::string sheader, reader.Next());
      CCS_ASSIGN_OR_RETURN(SimpleConstraint simple,
                           ParseSimple(&reader, sheader));
      cases.emplace(std::move(value), std::move(simple));
    }
    disjunctions.emplace_back(attribute, std::move(cases));
  }
  return ConformanceConstraint(std::move(global), std::move(disjunctions));
}

}  // namespace ccs::core
