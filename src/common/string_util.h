// Small string helpers used by the CSV layer and constraint serialization.

#ifndef CCS_COMMON_STRING_UTIL_H_
#define CCS_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ccs {

/// Splits `text` at every occurrence of `delimiter` (no quoting rules; the
/// CSV reader has its own quote-aware splitter).
std::vector<std::string> Split(std::string_view text, char delimiter);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// Joins `parts` with `separator`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator);

/// Parses a double; rejects trailing garbage, empty strings, NaN spellings.
/// Tries ParseExactDecimal first, then std::from_chars; the bits are
/// from_chars' either way.
std::optional<double> ParseDouble(std::string_view text);

/// Parses the exact decimal `-?digits[.digits]` at the start of [begin,
/// end): no exponent, a mantissa m <= 2^53 (the digits without the '.';
/// leading zeros are free) and at most 22 fraction digits k. Sets
/// `*value` to m / 10^k, negated after a '-': one IEEE division of two
/// exact doubles, so it is correctly rounded (Clinger's fast path) and
/// its bits equal std::from_chars on the same text. Returns one past the
/// last byte parsed; nullptr when the text there is not of that form or
/// breaks a bound (a digit run is read to its end, never cut short). What
/// may follow the number is the caller's rule.
const char* ParseExactDecimal(const char* begin, const char* end,
                              double* value);

/// Parses a base-10 integer; rejects trailing garbage and empty strings.
std::optional<int64_t> ParseInt(std::string_view text);

/// Parses an exact count, the rule of every codec: decimal digits only
/// (no sign, whitespace, leading zero or trailing text), <= UINT64_MAX.
std::optional<uint64_t> ParseUint(std::string_view text);

/// True if `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Formats a double compactly (shortest representation round-tripping to
/// 10 significant digits, trailing zeros trimmed).
std::string FormatDouble(double value);

/// The raw IEEE-754 bits of `value`, sign and NaN payload included.
uint64_t DoubleBits(double value);

/// `bits` as 16 lowercase hex digits. HexBits(DoubleBits(v)) is the
/// exact text form of a double that golden traces and checkpoints store.
std::string HexBits(uint64_t bits);

/// The double whose bits are the 16 hex digits `text` (the inverse of
/// HexBits(DoubleBits(v))); nullopt for any other text.
std::optional<double> ParseHexBits(std::string_view text);

/// The 64-bit FNV-1a hash of `bytes`: the checkpoint checksum. Any one
/// changed byte changes it.
uint64_t Fnv1a64(std::string_view bytes);

/// Lowercases ASCII characters.
std::string ToLower(std::string_view text);

}  // namespace ccs

#endif  // CCS_COMMON_STRING_UTIL_H_
