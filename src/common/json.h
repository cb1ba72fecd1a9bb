// The one JSON reader and string escaper.
//
// CCSynth reads two small JSON documents from untrusted bytes — fault
// specs (common/fault.h) and scenario specs (scenario/scenario.h) — and
// writes JSON from obs, the fault and scenario encoders, and the CLI.
// Both directions go through this file so the grammar cannot drift
// between formats:
//
//   - strict RFC 8259 syntax: whitespace is space, tab, CR and LF;
//     numbers follow the JSON number grammar (no leading '+', '.5',
//     '1.', NaN or inf); trailing content after the document is an
//     error;
//   - strings decode \" \\ \/ \b \f \n \r \t and the ASCII escapes
//     \u0000-\u007f — everything EscapeJson emits — and reject any
//     other escape and any raw control character;
//   - Uint() reads an exact non-negative integer: a fraction, exponent,
//     sign or a value past UINT64_MAX is an error, never a rounded cast.
//
// JsonReader is schema-driven: the caller's field and element callbacks
// say which value comes next, so unknown keys are rejected where the
// schema is known and nesting depth is bounded by the schema, not by the
// input.

#ifndef CCS_COMMON_JSON_H_
#define CCS_COMMON_JSON_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>

#include "common/statusor.h"

namespace ccs::common {

/// `s` escaped for the inside of a JSON string literal: quote, backslash
/// and control characters (\n, \r, \t by name, the rest as \u00XX).
/// Bytes >= 0x80 pass through unchanged.
std::string EscapeJson(std::string_view s);

/// A cursor over one JSON document. Every error is InvalidArgument and
/// starts with the context prefix, e.g. "fault spec JSON: expected '{'
/// at offset 0".
class JsonReader {
 public:
  /// `text` must outlive the reader.
  JsonReader(std::string_view text, std::string context)
      : text_(text), context_(std::move(context)) {}

  /// Reads an object, calling `field(key)` once per member with the
  /// cursor on the member's value; `field` must consume that value (or
  /// return an error, e.g. Error("unknown key ...")).
  Status Object(const std::function<Status(const std::string& key)>& field);

  /// Reads an array, calling `element()` once per element with the
  /// cursor on it; `element` must consume it.
  Status Array(const std::function<Status()>& element);

  /// Reads a string, decoding its escapes.
  StatusOr<std::string> String();
  /// Reads a number; finite by construction (no NaN or inf spelling,
  /// and a value past the double range is an error).
  StatusOr<double> Double();
  /// Reads an exact integer in [0, UINT64_MAX].
  StatusOr<uint64_t> Uint();

  /// OK iff only whitespace remains.
  Status End();

  /// InvalidArgument "<context>: <what>".
  Status Error(std::string_view what) const;

 private:
  void SkipSpace();
  /// Skips whitespace; consumes `c` and returns true if it comes next.
  bool Consume(char c);
  Status Expect(char c);
  /// The JSON number token at the cursor (consumed), or an error.
  StatusOr<std::string_view> NumberToken();
  /// The offset of `token` (a view into text_), for error messages.
  std::string Offset(std::string_view token) const;

  std::string_view text_;
  std::string context_;
  size_t pos_ = 0;
};

/// Stores an ok `value` in `*out`, or returns its error: the glue
/// between a read and a struct field, `return Store(r.Uint(), &seed);`.
template <typename T, typename U>
Status Store(StatusOr<U> value, T* out) {
  if (!value.ok()) return std::move(value).status();
  *out = std::move(value).value();
  return Status::OK();
}

}  // namespace ccs::common

#endif  // CCS_COMMON_JSON_H_
