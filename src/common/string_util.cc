#include "common/string_util.h"

#include <algorithm>
#include <cctype>
#include <cfloat>
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

namespace {

// ParseExactDecimal's bounds: every integer up to 2^53 is an exact
// double, and so is every 10^k, k <= 22.
constexpr uint64_t kMaxExactMantissa = uint64_t{1} << 53;
constexpr size_t kMaxExactPow10 = 22;
constexpr double kExactPow10[kMaxExactPow10 + 1] = {
    1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};
constexpr double kSign[2] = {1.0, -1.0};

#if defined(__SIZEOF_INT128__) && defined(__BYTE_ORDER__) && \
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
#define CCS_DECIMAL_WINDOW 1
#else
#define CCS_DECIMAL_WINDOW 0
#endif

// Reads `digits[.digits]` at `p` one byte at a time, on any host and at
// any length: the mantissa with the '.' dropped into `*mantissa`, the
// fraction digits' count into `*fraction`. nullptr when the text is not
// of that form or the mantissa passes kMaxExactMantissa (checked before
// each step, so it never overflows).
const char* ParseDigitsScalar(const char* p, const char* end,
                              uint64_t* mantissa, size_t* fraction) {
  uint64_t m = 0;
  auto run = [&](const char* q) -> const char* {
    for (; q != end && static_cast<unsigned char>(*q - '0') <= 9; ++q) {
      if (m > kMaxExactMantissa) return nullptr;
      m = m * 10 + static_cast<unsigned char>(*q - '0');
    }
    return q;
  };
  const char* stop = run(p);
  if (stop == nullptr || stop == p) return nullptr;
  *fraction = 0;
  if (stop != end && *stop == '.') {
    const char* const first = stop + 1;
    stop = run(first);
    if (stop == nullptr || stop == first) return nullptr;
    *fraction = static_cast<size_t>(stop - first);
  }
  *mantissa = m;
  return stop;
}

#if CCS_DECIMAL_WINDOW
// Sixteen text bytes as one integer, the first byte lowest: a number
// that ends inside them is read with no branch on its digits (SWAR;
// Lemire, arXiv:2101.11408).
using Window = unsigned __int128;

constexpr Window EveryByte(uint8_t byte) {
  const uint64_t half = 0x0101010101010101ull * byte;
  return Window{half} << 64 | half;
}

// The 0x80 bit of every byte of `w` that is not an ASCII digit. Each
// sum stays inside its byte, so every byte is judged on its own.
Window NonDigits(Window w) {
  const Window low = w & EveryByte(0x7F);
  const Window at_least_0 = low + EveryByte(0x80 - '0');
  const Window past_9 = low + EveryByte(0x80 - '9' - 1);
  return ~(at_least_0 & ~past_9 & ~w) & EveryByte(0x80);
}

// The index of the lowest byte flagged in `flags` (not 0).
size_t FirstFlagged(Window flags) {
  const auto low = static_cast<uint64_t>(flags);
  const int bit = low != 0 ? __builtin_ctzll(low)
                           : 64 + __builtin_ctzll(static_cast<uint64_t>(
                                      flags >> 64));
  return static_cast<size_t>(bit / 8);
}

// The number whose eight decimal digit values (0-9) are the bytes of
// `v`, the first lowest: pairs, then quads, then the whole.
uint64_t EightDigitsValue(uint64_t v) {
  constexpr uint64_t kPairs = 0x000000FF000000FF;
  v = v * 10 + (v >> 8);
  return ((v & kPairs) * (100 + (1000000ull << 32)) +
          ((v >> 16) & kPairs) * (1 + (10000ull << 32))) >>
         32;
}

// ParseDigitsScalar for a number that ends within the sixteen bytes at
// `p` (all readable); nullptr when it does not, or is not of the form
// (the scalar reader then decides). At most 15 digits fit, so the
// mantissa is below 2^53.
const char* ParseDigitsWindow(const char* p, uint64_t* mantissa,
                              size_t* fraction) {
  uint64_t halves[2];
  std::memcpy(halves, p, sizeof(halves));
  const Window text = Window{halves[1]} << 64 | halves[0];
  const Window stops = NonDigits(text);
  if (stops == 0) return nullptr;
  const size_t whole = FirstFlagged(stops);
  if (whole == 0) return nullptr;
  Window digits = text;
  size_t count = whole;
  size_t end = whole;
  *fraction = 0;
  if (p[whole] == '.') {
    const Window rest = stops & (stops - 1);
    if (rest == 0) return nullptr;
    end = FirstFlagged(rest);
    if (end == whole + 1) return nullptr;
    // Drop the '.': the fraction digits slide down one byte.
    const Window below = (Window{1} << (8 * whole)) - 1;
    digits = (text & below) | ((text >> 8) & ~below);
    count = end - 1;
    *fraction = end - whole - 1;
  }
  // Digit values ('0' ^ '0' is 0) in the top `count` bytes: a 16-digit
  // number with leading zeros.
  const Window values = (digits ^ EveryByte('0')) << (8 * (16 - count));
  *mantissa = EightDigitsValue(static_cast<uint64_t>(values)) * 100000000 +
              EightDigitsValue(static_cast<uint64_t>(values >> 64));
  return p + end;
}
#endif

}  // namespace

const char* ParseExactDecimal(const char* begin, const char* end,
                              double* value) {
#if FLT_EVAL_METHOD != 0
  // Excess precision would round the quotient twice.
  return nullptr;
#endif
  const bool negative = begin != end && *begin == '-';
  const char* const digits = begin + (negative ? 1 : 0);
  uint64_t mantissa = 0;
  size_t fraction = 0;
  const char* stop = nullptr;
#if CCS_DECIMAL_WINDOW
  if (end - digits >= 16) {
    stop = ParseDigitsWindow(digits, &mantissa, &fraction);
  }
#endif
  if (stop == nullptr) {
    stop = ParseDigitsScalar(digits, end, &mantissa, &fraction);
    if (stop == nullptr) return nullptr;
  }
  if (mantissa > kMaxExactMantissa || fraction > kMaxExactPow10) {
    return nullptr;
  }
  // Exact operands, so the one rounding is the division's; the sign is
  // applied exactly, -0 included.
  *value = static_cast<double>(mantissa) / kExactPow10[fraction] *
           kSign[negative ? 1 : 0];
  return stop;
}

std::optional<double> ParseDouble(std::string_view text) {
  text = Trim(text);
  if (text.empty()) return std::nullopt;
  double value = 0.0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  if (ParseExactDecimal(begin, end, &value) == end) return value;
  // std::from_chars for double is available in libstdc++ 11+.
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
