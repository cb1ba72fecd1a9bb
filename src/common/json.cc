#include "common/json.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <optional>

#include "common/string_util.h"

namespace ccs::common {

namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

std::string EscapeJson(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

Status JsonReader::Object(
    const std::function<Status(const std::string& key)>& field) {
  CCS_RETURN_IF_ERROR(Expect('{'));
  if (Consume('}')) return Status::OK();
  do {
    CCS_ASSIGN_OR_RETURN(std::string key, String());
    CCS_RETURN_IF_ERROR(Expect(':'));
    CCS_RETURN_IF_ERROR(field(key));
  } while (Consume(','));
  return Expect('}');
}

Status JsonReader::Array(const std::function<Status()>& element) {
  CCS_RETURN_IF_ERROR(Expect('['));
  if (Consume(']')) return Status::OK();
  do {
    CCS_RETURN_IF_ERROR(element());
  } while (Consume(','));
  return Expect(']');
}

StatusOr<std::string> JsonReader::String() {
  CCS_RETURN_IF_ERROR(Expect('"'));
  std::string out;
  while (pos_ < text_.size()) {
    const size_t at = pos_;
    const char c = text_[pos_++];
    if (c == '"') return out;
    if (static_cast<unsigned char>(c) < 0x20) {
      return Error("unescaped control character at offset " +
                   std::to_string(at));
    }
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (pos_ >= text_.size()) break;
    switch (const char e = text_[pos_++]) {
      case '"': case '\\': case '/': out.push_back(e); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        // ASCII only: a code point >= 0x80 would need UTF-8 encoding,
        // and EscapeJson never writes one.
        unsigned code = 0;
        const char* hex = text_.data() + pos_;
        const char* hex_end = hex + std::min<size_t>(4, text_.size() - pos_);
        auto [ptr, ec] = std::from_chars(hex, hex_end, code, 16);
        if (hex_end - hex != 4 || ec != std::errc() || ptr != hex_end ||
            code >= 0x80) {
          return Error("unsupported \\u escape at offset " +
                       std::to_string(at));
        }
        out.push_back(static_cast<char>(code));
        pos_ += 4;
        break;
      }
      default:
        return Error("unsupported escape at offset " + std::to_string(at));
    }
  }
  return Error("unterminated string");
}

StatusOr<std::string_view> JsonReader::NumberToken() {
  SkipSpace();
  const size_t start = pos_;
  auto peek_is = [&](char c) {
    return pos_ < text_.size() && text_[pos_] == c;
  };
  auto digits = [&] {
    const size_t begin = pos_;
    while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
    return pos_ > begin;
  };
  bool ok = true;
  if (peek_is('-')) ++pos_;
  if (peek_is('0')) {
    ++pos_;
  } else {
    ok = digits();
  }
  if (ok && peek_is('.')) {
    ++pos_;
    ok = digits();
  }
  if (ok && (peek_is('e') || peek_is('E'))) {
    ++pos_;
    if (peek_is('+') || peek_is('-')) ++pos_;
    ok = digits();
  }
  if (!ok) return Error("bad number at offset " + std::to_string(start));
  return text_.substr(start, pos_ - start);
}

StatusOr<double> JsonReader::Double() {
  CCS_ASSIGN_OR_RETURN(std::string_view token, NumberToken());
  double value = 0.0;
  const char* end = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return Error("number out of range at offset " + Offset(token));
  }
  return value;
}

StatusOr<uint64_t> JsonReader::Uint() {
  CCS_ASSIGN_OR_RETURN(std::string_view token, NumberToken());
  const std::optional<uint64_t> value = ParseUint(token);
  if (!value.has_value()) {
    return Error("expected an integer in [0, 2^64) at offset " +
                 Offset(token));
  }
  return *value;
}

Status JsonReader::End() {
  SkipSpace();
  if (pos_ != text_.size()) return Error("trailing content");
  return Status::OK();
}

std::string JsonReader::Offset(std::string_view token) const {
  return std::to_string(token.data() - text_.data());
}

Status JsonReader::Error(std::string_view what) const {
  return Status::InvalidArgument(context_ + ": " + std::string(what));
}

void JsonReader::SkipSpace() {
  while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                 text_[pos_] == '\n' || text_[pos_] == '\r')) {
    ++pos_;
  }
}

bool JsonReader::Consume(char c) {
  SkipSpace();
  if (pos_ >= text_.size() || text_[pos_] != c) return false;
  ++pos_;
  return true;
}

Status JsonReader::Expect(char c) {
  if (Consume(c)) return Status::OK();
  return Error(std::string("expected '") + c + "' at offset " +
               std::to_string(pos_));
}

StatusOr<std::string> ParseJsonString(std::string_view text,
                                      std::string context) {
  JsonReader reader(text, std::move(context));
  CCS_ASSIGN_OR_RETURN(std::string value, reader.String());
  CCS_RETURN_IF_ERROR(reader.End());
  return value;
}

}  // namespace ccs::common
