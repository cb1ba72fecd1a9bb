// Line-at-a-time reading of the line-oriented text codecs (learned
// profiles in core/serialize.h, checkpoints in stream/checkpoint.h).

#ifndef CCS_COMMON_LINE_READER_H_
#define CCS_COMMON_LINE_READER_H_

#include <string>
#include <string_view>
#include <utility>

#include "common/statusor.h"

namespace ccs::common {

/// Splits text at '\n' exactly as std::getline does: "a\nb" and "a\nb\n"
/// both yield "a", "b"; "" yields nothing. Every read is mandatory, so
/// running out is an error carrying the codec's own message.
class LineReader {
 public:
  /// `text` must outlive the reader; `end_message` is the
  /// InvalidArgument message Next() returns past the last line.
  LineReader(std::string_view text, std::string end_message)
      : text_(text), end_message_(std::move(end_message)) {}

  StatusOr<std::string> Next() {
    if (pos_ >= text_.size()) return Status::InvalidArgument(end_message_);
    size_t end = text_.find('\n', pos_);
    if (end == std::string_view::npos) end = text_.size();
    std::string line(text_.substr(pos_, end - pos_));
    pos_ = end + 1;
    ++line_number_;
    return line;
  }

  /// 1-based number of the line Next() last returned.
  size_t line_number() const { return line_number_; }

 private:
  std::string_view text_;
  std::string end_message_;
  size_t pos_ = 0;
  size_t line_number_ = 0;
};

}  // namespace ccs::common

#endif  // CCS_COMMON_LINE_READER_H_
