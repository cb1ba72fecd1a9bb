#include "stream/windower.h"

#include <algorithm>
#include <memory>
#include <numeric>
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

void Windower::StartGeneration(size_t chunk_rows) {
  const size_t live = end_ - start_;
  CCS_DCHECK(live < window_rows_);
  const bool first = capacity_ == 0;
  capacity_ = kGenerationWindows * window_rows_ + chunk_rows;
  for (size_t c = 0; c < buffers_.size(); ++c) {
    ColumnBuffer& buf = buffers_[c];
    if (schema_.attribute(c).type == AttributeType::kNumeric) {
      auto next = std::make_shared<std::vector<double>>(capacity_);
      if (live > 0) {
        std::copy(buf.numeric->begin() + start_, buf.numeric->begin() + end_,
                  next->begin());
      }
      buf.numeric = std::move(next);
    } else {
      auto next = std::make_shared<std::vector<uint32_t>>(capacity_);
      if (live > 0) {
        std::copy(buf.codes->begin() + start_, buf.codes->begin() + end_,
                  next->begin());
      }
      buf.codes = std::move(next);
    }
  }
  start_ = 0;
  end_ = live;
  rows_carried_ += live;
  if (!first) ++generation_changes_;
}

Status Windower::AppendChunk(const DataFrame& chunk) {
  CCS_RETURN_IF_ERROR(AdoptOrCheckSchema(chunk));
  const size_t rows = chunk.num_rows();
  if (rows == 0) return Status::OK();
  if (end_ + rows > capacity_) StartGeneration(rows);
  for (size_t c = 0; c < buffers_.size(); ++c) {
    const Column& col = chunk.column(c);
    ColumnBuffer& buf = buffers_[c];
    // Rows past end_ are named by no emitted window: writing them races
    // with nothing a window reads.
    if (col.is_numeric()) {
      double* out = buf.numeric->data() + end_;
      const std::vector<double>& data = col.numeric_buffer();
      if (const std::vector<size_t>* sel = col.selection()) {
        for (size_t i = 0; i < rows; ++i) out[i] = data[(*sel)[i]];
      } else {
        std::copy(data.begin(), data.end(), out);
      }
    } else {
      // Translate the chunk's dictionary codes into the windower's
      // dictionary once per *dictionary entry*; the per-row loop then
      // writes integers. With CsvChunkReader's persistent dictionaries
      // the translation is the identity after the first chunk, but any
      // chunk dictionary is accepted.
      const std::vector<std::string>& chunk_dict = col.dictionary();
      std::vector<uint32_t> translate(chunk_dict.size());
      for (uint32_t v = 0; v < chunk_dict.size(); ++v) {
        translate[v] = buf.dict.Intern(chunk_dict[v]);
      }
      uint32_t* out = buf.codes->data() + end_;
      for (size_t i = 0; i < rows; ++i) out[i] = translate[col.CodeAt(i)];
    }
  }
  end_ += rows;
  return Status::OK();
}

DataFrame Windower::EmitWindow() {
  // One index vector shared by every column: the window's rows of the
  // current generation. Nothing is copied out.
  auto selection = std::make_shared<std::vector<size_t>>(window_rows_);
  std::iota(selection->begin(), selection->end(), start_);
  DataFrame out;
  for (size_t c = 0; c < buffers_.size(); ++c) {
    const ColumnBuffer& buf = buffers_[c];
    const std::string& name = schema_.attribute(c).name;
    if (schema_.attribute(c).type == AttributeType::kNumeric) {
      CCS_CHECK(
          out.AddColumn(name, Column::NumericView(buf.numeric, selection)).ok());
    } else {
      CCS_CHECK(out.AddColumn(name, Column::CategoricalView(
                                        buf.codes, buf.dict.snapshot(),
                                        selection))
                    .ok());
    }
  }
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
    // chunk's storage instead of writing it through the buffers.
    if (buffered_rows() == 0 && slide_rows_ == window_rows_ &&
        chunk.num_rows() == window_rows_) {
      CCS_RETURN_IF_ERROR(AdoptOrCheckSchema(chunk));
      ++windows_emitted_;
      return std::vector<DataFrame>{chunk};
    }
    CCS_RETURN_IF_ERROR(AppendChunk(chunk));
  }
  std::vector<DataFrame> windows;
  while (buffered_rows() >= window_rows_) {
    windows.push_back(EmitWindow());
    start_ += slide_rows_;
    ++windows_emitted_;
  }
  return windows;
}

}  // namespace ccs::stream
