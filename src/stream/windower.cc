#include "stream/windower.h"

#include <algorithm>
#include <utility>

namespace ccs::stream {

using dataframe::AttributeType;
using dataframe::Column;
using dataframe::DataFrame;

StatusOr<Windower> Windower::Create(size_t window_rows, size_t slide_rows) {
  if (window_rows == 0) {
    return Status::InvalidArgument("Windower: window_rows must be >= 1");
  }
  if (slide_rows == 0) slide_rows = window_rows;  // Tumbling.
  if (slide_rows > window_rows) {
    return Status::InvalidArgument(
        "Windower: slide_rows must not exceed window_rows");
  }
  return Windower(window_rows, slide_rows);
}

Status Windower::AdoptOrCheckSchema(const DataFrame& chunk) {
  if (schema_.num_attributes() == 0 && buffers_.empty()) {
    schema_ = chunk.schema();
    buffers_.resize(schema_.num_attributes());
  } else if (!(chunk.schema() == schema_)) {
    return Status::InvalidArgument("Windower: chunk schema mismatch");
  }
  return Status::OK();
}

Status Windower::AppendChunk(const DataFrame& chunk) {
  CCS_RETURN_IF_ERROR(AdoptOrCheckSchema(chunk));
  const size_t rows = chunk.num_rows();
  for (size_t c = 0; c < buffers_.size(); ++c) {
    const Column& col = chunk.column(c);
    ColumnBuffer& buf = buffers_[c];
    if (col.is_numeric()) {
      size_t old_capacity = buf.numeric.capacity();
      const std::vector<double>& data = col.numeric_buffer();
      if (const std::vector<size_t>* sel = col.selection()) {
        for (size_t i = 0; i < rows; ++i) {
          buf.numeric.push_back(data[(*sel)[i]]);
        }
      } else {
        buf.numeric.insert(buf.numeric.end(), data.begin(), data.end());
      }
      if (buf.numeric.capacity() != old_capacity) ++buffer_reallocs_;
    } else {
      size_t old_capacity = buf.codes.capacity();
      // Translate the chunk's dictionary codes into the rolling
      // dictionary once per *dictionary entry*; the per-row loop then
      // appends integers. With CsvChunkReader's persistent dictionaries
      // the translation is the identity after the first chunk, but any
      // chunk dictionary is accepted.
      const std::vector<std::string>& chunk_dict = col.dictionary();
      std::vector<uint32_t> translate(chunk_dict.size());
      for (uint32_t v = 0; v < chunk_dict.size(); ++v) {
        translate[v] = buf.dict.Intern(chunk_dict[v]);
      }
      for (size_t i = 0; i < rows; ++i) {
        buf.codes.push_back(translate[col.CodeAt(i)]);
      }
      if (buf.codes.capacity() != old_capacity) ++buffer_reallocs_;
    }
  }
  buffered_rows_ += rows;
  return Status::OK();
}

DataFrame Windower::EmitWindow() {
  DataFrame out;
  for (size_t c = 0; c < buffers_.size(); ++c) {
    ColumnBuffer& buf = buffers_[c];
    const std::string& name = schema_.attribute(c).name;
    if (schema_.attribute(c).type == AttributeType::kNumeric) {
      std::vector<double> values(buf.numeric.begin() + start_,
                                 buf.numeric.begin() + start_ + window_rows_);
      CCS_CHECK(out.AddNumericColumn(name, std::move(values)).ok());
    } else {
      std::vector<uint32_t> codes(buf.codes.begin() + start_,
                                  buf.codes.begin() + start_ + window_rows_);
      CCS_CHECK(out.AddColumn(name, Column::CategoricalFromCodes(
                                        std::move(codes), buf.dict.snapshot()))
                    .ok());
    }
  }
  rows_copied_out_ += window_rows_;
  return out;
}

StatusOr<std::vector<DataFrame>> Windower::Push(const DataFrame& chunk) {
  // Zero-row chunks complete nothing, but they still adopt (first chunk)
  // or validate the schema: a producer whose schema diverged must fail
  // deterministically, not only when the offending chunk happens to
  // carry rows. Only a column-less placeholder frame is ignored.
  if (chunk.num_columns() > 0) {
    // A tumbling window that is exactly this chunk, with nothing
    // buffered ahead of it, is the chunk itself: emit it sharing the
    // chunk's storage instead of copying it through the buffers.
    if (buffered_rows_ == 0 && slide_rows_ == window_rows_ &&
        chunk.num_rows() == window_rows_) {
      CCS_RETURN_IF_ERROR(AdoptOrCheckSchema(chunk));
      ++windows_emitted_;
      return std::vector<DataFrame>{chunk};
    }
    CCS_RETURN_IF_ERROR(AppendChunk(chunk));
  }
  std::vector<DataFrame> windows;
  while (buffered_rows_ >= window_rows_) {
    windows.push_back(EmitWindow());
    start_ += slide_rows_;
    buffered_rows_ -= slide_rows_;
    ++windows_emitted_;
  }
  // Compact the consumed prefix once per Push (not per emit): erase
  // keeps the vector capacity, so steady-state pushes never reallocate.
  if (start_ > 0) {
    for (ColumnBuffer& buf : buffers_) {
      buf.numeric.erase(
          buf.numeric.begin(),
          buf.numeric.begin() + std::min(start_, buf.numeric.size()));
      buf.codes.erase(buf.codes.begin(),
                      buf.codes.begin() + std::min(start_, buf.codes.size()));
    }
    start_ = 0;
  }
  return windows;
}

size_t Windower::buffer_capacity_rows() const {
  size_t capacity = 0;
  for (const ColumnBuffer& buf : buffers_) {
    capacity = std::max(capacity, buf.numeric.capacity());
    capacity = std::max(capacity, buf.codes.capacity());
  }
  return capacity;
}

}  // namespace ccs::stream
