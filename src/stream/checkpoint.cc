#include "stream/checkpoint.h"

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "common/json.h"
#include "common/line_reader.h"
#include "common/string_util.h"
#include "core/serialize.h"

namespace ccs::stream {

namespace {

constexpr char kMagic[] = "ccsynth-checkpoint v2";

// The last line: "end" and the checksum of every byte before it.
std::string EndLine(std::string_view body) {
  return "end " + HexBits(Fnv1a64(body)) + "\n";
}

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
  std::optional<uint64_t> v = ParseUint(text);
  if (!v.has_value()) {
    return Status::InvalidArgument("checkpoint: bad count for '" + key + "'");
  }
  return static_cast<size_t>(*v);
}

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
    out += "attr \"" + common::EscapeJson(name) + "\"\n";
  }
  out += "gram count=" + std::to_string(data.gram_count) +
         " dim=" + std::to_string(data.attribute_names.size()) + "\n";
  for (size_t r = 0; r < data.gram_sum.rows(); ++r) {
    out += "gram_row";
    for (size_t c = 0; c < data.gram_sum.cols(); ++c) {
      out += " " + HexBits(DoubleBits(data.gram_sum.At(r, c)));
    }
    out += "\n";
  }
  if (data.has_profile) {
    out += "profile\n";
    core::AppendSimple(data.profile, &out);
  }
  out += EndLine(out);
  return out;
}

StatusOr<CheckpointData> ParseCheckpoint(const std::string& text) {
  // Every byte is checked before any field is read: the file must end
  // with the end line, which holds the checksum of everything before it.
  const std::string_view body =
      std::string_view(text).substr(0, text.rfind("\nend ") + 1);
  if (body.empty() || text.substr(body.size()) != EndLine(body)) {
    return Status::InvalidArgument(
        "checkpoint: missing end line or checksum mismatch");
  }
  CheckpointData data;
  common::LineReader reader(body, "checkpoint: truncated file");
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
    CCS_ASSIGN_OR_RETURN(std::string threshold, Field(fields, "threshold"));
    CCS_ASSIGN_OR_RETURN(double bits, FromHex(threshold));
    data.threshold_bits = DoubleBits(bits);
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
  const std::optional<uint64_t> num_attrs =
      StartsWith(line, "attrs ") ? ParseUint(line.substr(6)) : std::nullopt;
  if (!num_attrs.has_value() || *num_attrs == 0) {
    return Status::InvalidArgument("checkpoint: bad attrs line");
  }
  for (uint64_t i = 0; i < *num_attrs; ++i) {
    CCS_ASSIGN_OR_RETURN(line, reader.Next());
    if (!StartsWith(line, "attr ")) {
      return Status::InvalidArgument("checkpoint: expected attr line");
    }
    CCS_ASSIGN_OR_RETURN(
        data.attribute_names.emplace_back(),
        common::ParseJsonString(line.substr(5), "checkpoint: attr"));
  }

  CCS_ASSIGN_OR_RETURN(line, reader.Next());
  {
    std::vector<std::string> fields = Split(line, ' ');
    if (fields.empty() || fields[0] != "gram") {
      return Status::InvalidArgument("checkpoint: expected gram line");
    }
    CCS_ASSIGN_OR_RETURN(size_t count, SizeField(fields, "count"));
    if (count > static_cast<size_t>(INT64_MAX)) {
      return Status::InvalidArgument("checkpoint: bad gram count");
    }
    data.gram_count = static_cast<int64_t>(count);
    CCS_ASSIGN_OR_RETURN(size_t dim, SizeField(fields, "dim"));
    if (dim != data.attribute_names.size()) {
      return Status::InvalidArgument(
          "checkpoint: gram dim does not match attrs");
    }
  }
  const size_t dim = data.attribute_names.size() + 1;
  data.gram_sum = linalg::Matrix(dim, dim);
  for (size_t r = 0; r < dim; ++r) {
    CCS_ASSIGN_OR_RETURN(line, reader.Next());
    std::vector<std::string> fields = Split(line, ' ');
    if (fields.size() != dim + 1 || fields[0] != "gram_row") {
      return Status::InvalidArgument("checkpoint: bad gram_row at line " +
                                     std::to_string(reader.line_number()));
    }
    for (size_t c = 0; c < dim; ++c) {
      CCS_ASSIGN_OR_RETURN(double v, FromHex(fields[c + 1]));
      data.gram_sum.At(r, c) = v;
    }
  }

  if (!reader.AtEnd()) {
    CCS_ASSIGN_OR_RETURN(line, reader.Next());
    if (line != "profile") {
      return Status::InvalidArgument("checkpoint: expected profile line");
    }
    CCS_ASSIGN_OR_RETURN(data.profile, core::ReadSimple(&reader));
    if (data.profile.attribute_names() != data.attribute_names) {
      return Status::InvalidArgument(
          "checkpoint: profile attributes do not match attrs");
    }
    data.has_profile = true;
  }
  if (!reader.AtEnd()) {
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
