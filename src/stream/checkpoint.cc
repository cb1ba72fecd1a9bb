#include "stream/checkpoint.h"

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "common/string_util.h"
#include "core/projection.h"

namespace ccs::stream {

namespace {

constexpr char kMagic[] = "ccsynth-checkpoint v1";

// Raw IEEE-754 bits as 16 hex chars — the exact-round-trip double form
// golden traces use too (common/string_util.h). No NaN canonicalization
// here: a checkpoint stores state bits verbatim.
std::string Hex(double value) { return HexBits(DoubleBits(value)); }

StatusOr<double> FromHex(const std::string& text) {
  std::optional<double> value = ParseHexBits(text);
  if (!value.has_value()) {
    return Status::InvalidArgument("checkpoint: bad double bits '" + text +
                                   "'");
  }
  return *value;
}

// "key=value" fields on a space-separated line.
StatusOr<std::string> Field(const std::vector<std::string>& fields,
                            const std::string& key) {
  const std::string prefix = key + "=";
  for (const std::string& f : fields) {
    if (StartsWith(f, prefix)) return f.substr(prefix.size());
  }
  return Status::InvalidArgument("checkpoint: missing field '" + key + "'");
}

StatusOr<size_t> SizeField(const std::vector<std::string>& fields,
                           const std::string& key) {
  CCS_ASSIGN_OR_RETURN(std::string text, Field(fields, key));
  std::optional<int64_t> v = ParseInt(text);
  if (!v.has_value() || *v < 0) {
    return Status::InvalidArgument("checkpoint: bad count for '" + key + "'");
  }
  return static_cast<size_t>(*v);
}

StatusOr<double> HexField(const std::vector<std::string>& fields,
                          const std::string& key) {
  CCS_ASSIGN_OR_RETURN(std::string text, Field(fields, key));
  return FromHex(text);
}

class LineReader {
 public:
  explicit LineReader(const std::string& text) : in_(text) {}

  /// Next line; InvalidArgument at end (every Parse read is mandatory).
  StatusOr<std::string> Next() {
    std::string line;
    if (!std::getline(in_, line)) {
      return Status::InvalidArgument("checkpoint: truncated file");
    }
    ++line_number_;
    return line;
  }

  size_t line_number() const { return line_number_; }

 private:
  std::istringstream in_;
  size_t line_number_ = 0;
};

}  // namespace

std::string SerializeCheckpoint(const CheckpointData& data) {
  std::string out = std::string(kMagic) + "\n";
  out += "geometry window_rows=" + std::to_string(data.window_rows) +
         " slide_rows=" + std::to_string(data.slide_rows) +
         " refresh_every=" + std::to_string(data.refresh_every) +
         " threshold=" + HexBits(data.threshold_bits) + "\n";
  out += "progress windows_committed=" + std::to_string(data.windows_committed) +
         " windows_consumed=" + std::to_string(data.windows_consumed) +
         " rows_consumed=" + std::to_string(data.rows_consumed) +
         " refreshes=" + std::to_string(data.refreshes) + "\n";
  out += "attrs " + std::to_string(data.attribute_names.size()) + "\n";
  for (const std::string& name : data.attribute_names) {
    out += "attr " + name + "\n";
  }
  out += "gram count=" + std::to_string(data.gram_count) +
         " dim=" + std::to_string(data.attribute_names.size()) + "\n";
  for (size_t r = 0; r < data.gram_sum.rows(); ++r) {
    out += "gram_row";
    for (size_t c = 0; c < data.gram_sum.cols(); ++c) {
      out += " " + Hex(data.gram_sum.At(r, c));
    }
    out += "\n";
  }
  if (data.has_profile) {
    out += "profile conjuncts=" +
           std::to_string(data.profile.conjuncts().size()) + "\n";
    for (const core::BoundedConstraint& bc : data.profile.conjuncts()) {
      out += "conjunct coeffs=";
      const linalg::Vector& coeffs = bc.projection().coefficients();
      for (size_t i = 0; i < coeffs.size(); ++i) {
        if (i > 0) out += ",";
        out += Hex(coeffs[i]);
      }
      out += " lb=" + Hex(bc.lb()) + " ub=" + Hex(bc.ub()) +
             " mean=" + Hex(bc.mean()) + " stddev=" + Hex(bc.stddev()) +
             " importance=" + Hex(bc.importance()) + "\n";
    }
  }
  out += "end\n";
  return out;
}

StatusOr<CheckpointData> ParseCheckpoint(const std::string& text) {
  CheckpointData data;
  LineReader reader(text);
  CCS_ASSIGN_OR_RETURN(std::string line, reader.Next());
  if (line != kMagic) {
    return Status::InvalidArgument(
        "checkpoint: bad magic (expected '" + std::string(kMagic) + "')");
  }

  CCS_ASSIGN_OR_RETURN(line, reader.Next());
  {
    std::vector<std::string> fields = Split(line, ' ');
    if (fields.empty() || fields[0] != "geometry") {
      return Status::InvalidArgument("checkpoint: expected geometry line");
    }
    CCS_ASSIGN_OR_RETURN(data.window_rows, SizeField(fields, "window_rows"));
    CCS_ASSIGN_OR_RETURN(data.slide_rows, SizeField(fields, "slide_rows"));
    CCS_ASSIGN_OR_RETURN(data.refresh_every,
                         SizeField(fields, "refresh_every"));
    CCS_ASSIGN_OR_RETURN(double threshold, HexField(fields, "threshold"));
    data.threshold_bits = DoubleBits(threshold);
  }

  CCS_ASSIGN_OR_RETURN(line, reader.Next());
  {
    std::vector<std::string> fields = Split(line, ' ');
    if (fields.empty() || fields[0] != "progress") {
      return Status::InvalidArgument("checkpoint: expected progress line");
    }
    CCS_ASSIGN_OR_RETURN(data.windows_committed,
                         SizeField(fields, "windows_committed"));
    CCS_ASSIGN_OR_RETURN(data.windows_consumed,
                         SizeField(fields, "windows_consumed"));
    CCS_ASSIGN_OR_RETURN(data.rows_consumed,
                         SizeField(fields, "rows_consumed"));
    CCS_ASSIGN_OR_RETURN(data.refreshes, SizeField(fields, "refreshes"));
  }

  CCS_ASSIGN_OR_RETURN(line, reader.Next());
  size_t num_attrs = 0;
  {
    std::vector<std::string> fields = Split(line, ' ');
    if (fields.size() != 2 || fields[0] != "attrs") {
      return Status::InvalidArgument("checkpoint: expected attrs line");
    }
    std::optional<int64_t> n = ParseInt(fields[1]);
    if (!n.has_value() || *n <= 0) {
      return Status::InvalidArgument("checkpoint: bad attrs count");
    }
    num_attrs = static_cast<size_t>(*n);
  }
  for (size_t i = 0; i < num_attrs; ++i) {
    CCS_ASSIGN_OR_RETURN(line, reader.Next());
    if (!StartsWith(line, "attr ")) {
      return Status::InvalidArgument("checkpoint: expected attr line");
    }
    // Rest of line: attribute names may contain spaces.
    data.attribute_names.push_back(line.substr(5));
  }

  CCS_ASSIGN_OR_RETURN(line, reader.Next());
  {
    std::vector<std::string> fields = Split(line, ' ');
    if (fields.empty() || fields[0] != "gram") {
      return Status::InvalidArgument("checkpoint: expected gram line");
    }
    CCS_ASSIGN_OR_RETURN(std::string count_text, Field(fields, "count"));
    std::optional<int64_t> n = ParseInt(count_text);
    if (!n.has_value() || *n < 0) {
      return Status::InvalidArgument("checkpoint: bad gram count");
    }
    data.gram_count = *n;
    CCS_ASSIGN_OR_RETURN(size_t dim, SizeField(fields, "dim"));
    if (dim != num_attrs) {
      return Status::InvalidArgument(
          "checkpoint: gram dim does not match attrs");
    }
  }
  data.gram_sum = linalg::Matrix(num_attrs + 1, num_attrs + 1);
  for (size_t r = 0; r < num_attrs + 1; ++r) {
    CCS_ASSIGN_OR_RETURN(line, reader.Next());
    std::vector<std::string> fields = Split(line, ' ');
    if (fields.size() != num_attrs + 2 || fields[0] != "gram_row") {
      return Status::InvalidArgument("checkpoint: bad gram_row at line " +
                                     std::to_string(reader.line_number()));
    }
    for (size_t c = 0; c < num_attrs + 1; ++c) {
      CCS_ASSIGN_OR_RETURN(double v, FromHex(fields[c + 1]));
      data.gram_sum.At(r, c) = v;
    }
  }

  CCS_ASSIGN_OR_RETURN(line, reader.Next());
  if (StartsWith(line, "profile ")) {
    std::vector<std::string> fields = Split(line, ' ');
    CCS_ASSIGN_OR_RETURN(size_t num_conjuncts,
                         SizeField(fields, "conjuncts"));
    std::vector<core::BoundedConstraint> conjuncts;
    conjuncts.reserve(num_conjuncts);
    for (size_t i = 0; i < num_conjuncts; ++i) {
      CCS_ASSIGN_OR_RETURN(line, reader.Next());
      std::vector<std::string> cfields = Split(line, ' ');
      if (cfields.empty() || cfields[0] != "conjunct") {
        return Status::InvalidArgument("checkpoint: expected conjunct line");
      }
      CCS_ASSIGN_OR_RETURN(std::string coeff_text, Field(cfields, "coeffs"));
      std::vector<std::string> coeff_hex = Split(coeff_text, ',');
      if (coeff_hex.size() != num_attrs) {
        return Status::InvalidArgument(
            "checkpoint: conjunct arity does not match attrs");
      }
      linalg::Vector coeffs(num_attrs);
      for (size_t c = 0; c < num_attrs; ++c) {
        CCS_ASSIGN_OR_RETURN(coeffs[c], FromHex(coeff_hex[c]));
      }
      CCS_ASSIGN_OR_RETURN(double lb, HexField(cfields, "lb"));
      CCS_ASSIGN_OR_RETURN(double ub, HexField(cfields, "ub"));
      CCS_ASSIGN_OR_RETURN(double mean, HexField(cfields, "mean"));
      CCS_ASSIGN_OR_RETURN(double stddev, HexField(cfields, "stddev"));
      CCS_ASSIGN_OR_RETURN(double importance,
                           HexField(cfields, "importance"));
      CCS_ASSIGN_OR_RETURN(
          core::Projection projection,
          core::Projection::Create(data.attribute_names, std::move(coeffs)));
      // BoundedConstraint re-derives its alpha scaling from the stddev
      // bits deterministically, so round-tripped constraints stay
      // ConstraintsBitwiseEqual to the originals.
      CCS_ASSIGN_OR_RETURN(
          core::BoundedConstraint conjunct,
          core::BoundedConstraint::Create(std::move(projection), lb, ub,
                                          mean, stddev, importance));
      conjuncts.push_back(std::move(conjunct));
    }
    CCS_ASSIGN_OR_RETURN(
        data.profile,
        core::SimpleConstraint::Create(data.attribute_names,
                                       std::move(conjuncts)));
    data.has_profile = true;
    CCS_ASSIGN_OR_RETURN(line, reader.Next());
  }
  if (line != "end") {
    return Status::InvalidArgument("checkpoint: expected end line");
  }
  return data;
}

Status WriteCheckpointFile(const CheckpointData& data,
                           const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      return Status::IoError("checkpoint: cannot write " + tmp);
    }
    out << SerializeCheckpoint(data);
    if (!out.flush()) {
      return Status::IoError("checkpoint: write to " + tmp + " failed");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("checkpoint: cannot rename " + tmp + " to " +
                           path);
  }
  return Status::OK();
}

StatusOr<CheckpointData> ReadCheckpointFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("checkpoint: cannot read " + path);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return ParseCheckpoint(buffer.str());
}

}  // namespace ccs::stream
