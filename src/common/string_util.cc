#include "common/string_util.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace ccs {

std::vector<std::string> Split(std::string_view text, char delimiter) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(delimiter, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      break;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

namespace {

// std::isspace in the "C" locale (the program never switches locale),
// inlined: Trim runs on every CSV cell, where a libc call per end shows.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

}  // namespace

std::string_view Trim(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() && IsSpace(text[begin])) ++begin;
  size_t end = text.size();
  while (end > begin && IsSpace(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(separator);
    out.append(parts[i]);
  }
  return out;
}

std::optional<double> ParseDouble(std::string_view text) {
  text = Trim(text);
  if (text.empty()) return std::nullopt;
  // std::from_chars for double is available in libstdc++ 11+.
  double value = 0.0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  if (std::isnan(value)) return std::nullopt;
  return value;
}

std::optional<int64_t> ParseInt(std::string_view text) {
  text = Trim(text);
  if (text.empty()) return std::nullopt;
  int64_t value = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

std::optional<uint64_t> ParseUint(std::string_view text) {
  if (text.empty() || (text[0] == '0' && text.size() > 1)) return std::nullopt;
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

uint64_t DoubleBits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

std::string HexBits(uint64_t bits) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

std::optional<double> ParseHexBits(std::string_view text) {
  if (text.size() != 16) return std::nullopt;
  uint64_t bits = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, bits, 16);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

}  // namespace ccs
