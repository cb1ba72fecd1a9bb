// Tests for the streaming-serving subsystem: BoundedQueue backpressure
// semantics, Windower reassembly, CsvChunkReader, the StreamMonitor
// refresh hook, IncrementalSynthesizer::Merge, and the StreamPipeline
// serial-equivalence contract (bitwise-identical WindowScore history at
// any thread count).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bounded_queue.h"
#include "common/fault.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/monitor.h"
#include "dataframe/csv.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/pipeline.h"
#include "stream/windower.h"

namespace ccs::stream {
namespace {

using common::BoundedQueue;
using core::IncrementalSynthesizer;
using core::StreamMonitor;
using core::WindowScore;
using dataframe::DataFrame;

// y = x + noise, shifted off-trend by `offset` on y from row `drift_from`.
DataFrame TrendFrame(size_t n, double offset, uint64_t seed,
                     size_t drift_from = 0) {
  Rng rng(seed);
  std::vector<double> x(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Uniform(-5.0, 5.0);
    y[i] = x[i] + (i >= drift_from ? offset : 0.0) + rng.Gaussian(0.0, 0.1);
  }
  DataFrame df;
  CCS_CHECK(df.AddNumericColumn("x", std::move(x)).ok());
  CCS_CHECK(df.AddNumericColumn("y", std::move(y)).ok());
  return df;
}

std::string ToCsv(const DataFrame& df) {
  std::ostringstream out;
  CCS_CHECK(dataframe::WriteCsv(df, out).ok());
  return out.str();
}

// ---------------------------- BoundedQueue ----------------------------

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.Push(i));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.Pop(), i);
  EXPECT_EQ(q.TryPop(), std::nullopt);
}

TEST(BoundedQueueTest, BackpressureBoundsDepth) {
  // A producer far faster than the consumer must never buffer more than
  // the capacity: Push blocks instead.
  BoundedQueue<int> q(2);
  std::thread producer([&] {
    for (int i = 0; i < 50; ++i) EXPECT_TRUE(q.Push(i));
    q.Close();
  });
  int popped = 0;
  while (q.Pop().has_value()) ++popped;
  producer.join();
  EXPECT_EQ(popped, 50);
  EXPECT_LE(q.peak_depth(), 2u);
}

TEST(BoundedQueueTest, CloseDrainsThenEnds) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  q.Close();
  EXPECT_FALSE(q.Push(3));  // Refused after close...
  EXPECT_EQ(q.Pop(), 1);    // ...but buffered elements drain.
  EXPECT_EQ(q.Pop(), 2);
  EXPECT_EQ(q.Pop(), std::nullopt);
}

TEST(BoundedQueueTest, CloseUnblocksFullPush) {
  BoundedQueue<int> q(1);
  EXPECT_TRUE(q.Push(0));  // Queue now full.
  std::atomic<bool> push_returned{false};
  std::atomic<bool> push_result{true};
  std::thread producer([&] {
    push_result = q.Push(1);  // Blocks until Close.
    push_returned = true;
  });
  q.Close();
  producer.join();
  EXPECT_TRUE(push_returned);
  EXPECT_FALSE(push_result);
}

TEST(BoundedQueueTest, CloseWhileBlockedPop) {
  // A consumer blocked on an empty queue must wake on Close and observe
  // end-of-stream, not hang or fabricate an element.
  BoundedQueue<int> q(4);
  std::optional<int> popped = 42;
  std::thread consumer([&] {
    popped = q.Pop();  // Blocks (nothing buffered) until Close.
  });
  // Give the consumer a beat to actually block; Close must wake it
  // either way (it observes closed_ on entry if it loses the race).
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  consumer.join();
  EXPECT_EQ(popped, std::nullopt);
}

TEST(BoundedQueueTest, DoubleCloseFromConcurrentThreads) {
  // Two racing closers while both a push and a pop are blocked: every
  // party must return (push refused, pop end-of-stream after drain),
  // and the second Close must be a harmless no-op whichever order the
  // scheduler picks.
  for (int round = 0; round < 20; ++round) {
    BoundedQueue<int> q(1);
    ASSERT_TRUE(q.Push(7));  // Queue now full; the next Push blocks.
    bool push_ok = false;
    std::thread producer([&] { push_ok = q.Push(8); });
    std::vector<int> got;
    std::thread consumer([&] {
      while (std::optional<int> v = q.Pop()) got.push_back(*v);
    });
    std::thread closer_a([&] { q.Close(); });
    std::thread closer_b([&] { q.Close(); });
    closer_a.join();
    closer_b.join();
    producer.join();
    consumer.join();
    // The blocked push either lost the race to Close (refused) or slid
    // in as the consumer drained 7 — in which case 8 must also arrive.
    ASSERT_FALSE(got.empty());
    EXPECT_EQ(got.front(), 7);
    if (push_ok) {
      ASSERT_EQ(got.size(), 2u);
      EXPECT_EQ(got[1], 8);
    } else {
      EXPECT_EQ(got.size(), 1u);
    }
    EXPECT_TRUE(q.closed());
  }
}

TEST(BoundedQueueTest, MultiProducerDeliversEverything) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 100;
  BoundedQueue<int> q(3);
  std::vector<std::thread> producers;
  std::atomic<int> live{kProducers};
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        EXPECT_TRUE(q.Push(p * kPerProducer + i));
      }
      if (--live == 0) q.Close();
    });
  }
  std::multiset<int> seen;
  while (auto v = q.Pop()) seen.insert(*v);
  for (auto& t : producers) t.join();
  ASSERT_EQ(seen.size(), static_cast<size_t>(kProducers * kPerProducer));
  for (int v = 0; v < kProducers * kPerProducer; ++v) {
    EXPECT_EQ(seen.count(v), 1u) << v;
  }
}

// ------------------------------ Windower ------------------------------

TEST(WindowerTest, RejectsBadGeometry) {
  EXPECT_FALSE(Windower::Create(0).ok());
  EXPECT_FALSE(Windower::Create(10, 11).ok());
  EXPECT_TRUE(Windower::Create(10, 10).ok());
  EXPECT_TRUE(Windower::Create(10).ok());  // slide 0 = tumbling
}

TEST(WindowerTest, TumblingWindowsIgnoreChunkBoundaries) {
  DataFrame df = TrendFrame(100, 0.0, 1);
  auto windower = Windower::Create(30);
  ASSERT_TRUE(windower.ok());
  std::vector<DataFrame> all;
  // Feed in awkward chunk sizes: 7, 7, ..., then the rest.
  for (size_t begin = 0; begin < 100; begin += 7) {
    auto out = windower->Push(df.Slice(begin, std::min<size_t>(begin + 7, 100)));
    ASSERT_TRUE(out.ok());
    for (auto& w : *out) all.push_back(std::move(w));
  }
  ASSERT_EQ(all.size(), 3u);  // 100 rows / 30 = 3 full windows; 10 left.
  EXPECT_EQ(windower->buffered_rows(), 10u);
  EXPECT_EQ(windower->windows_emitted(), 3u);
  for (size_t w = 0; w < 3; ++w) {
    ASSERT_EQ(all[w].num_rows(), 30u);
    for (size_t r = 0; r < 30; ++r) {
      EXPECT_EQ(all[w].NumericValue(r, "x").value(),
                df.NumericValue(w * 30 + r, "x").value());
    }
  }
}

TEST(WindowerTest, SlidingWindowsOverlap) {
  DataFrame df = TrendFrame(25, 0.0, 2);
  auto windower = Windower::Create(10, 5);
  ASSERT_TRUE(windower.ok());
  auto out = windower->Push(df);
  ASSERT_TRUE(out.ok());
  // Windows start at rows 0, 5, 10; row 15 would need rows 15..24 (OK)
  // -> starts 0,5,10,15. 4 windows.
  ASSERT_EQ(out->size(), 4u);
  for (size_t w = 0; w < out->size(); ++w) {
    for (size_t r = 0; r < 10; ++r) {
      EXPECT_EQ((*out)[w].NumericValue(r, "y").value(),
                df.NumericValue(w * 5 + r, "y").value());
    }
  }
}

// Every cell of `a` and `b` equal: numeric cells bit for bit (NaN
// included), categorical cells by value.
void ExpectFramesBitwiseEqual(const DataFrame& a, const DataFrame& b) {
  ASSERT_TRUE(a.schema() == b.schema());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const dataframe::Column& ca = a.column(c);
    const dataframe::Column& cb = b.column(c);
    for (size_t r = 0; r < a.num_rows(); ++r) {
      if (ca.is_numeric()) {
        const double va = ca.NumericAt(r);
        const double vb = cb.NumericAt(r);
        EXPECT_EQ(std::memcmp(&va, &vb, sizeof(double)), 0)
            << "column " << c << " row " << r;
      } else {
        EXPECT_EQ(ca.CategoricalAt(r), cb.CategoricalAt(r))
            << "column " << c << " row " << r;
      }
    }
  }
}

TEST(WindowerTest, SlidingChunkedWindowsMatchStreamSlices) {
  // Sliding windows fed in chunks that do not divide the slide, so
  // windows complete mid-chunk and chunks straddle the buffer's
  // compactions: each window must equal its slice of the stream in
  // every column, a categorical and non-finite cells included.
  constexpr size_t kRows = 500;
  DataFrame df = TrendFrame(kRows, 0.0, 44);
  std::vector<double> z(kRows);
  std::vector<std::string> label(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    z[i] = i % 9 == 4    ? std::numeric_limits<double>::quiet_NaN()
           : i % 11 == 2 ? -std::numeric_limits<double>::infinity()
                         : 0.25 * static_cast<double>(i);
    label[i] = "v" + std::to_string(i * 7 % 5);
  }
  CCS_CHECK(df.AddCategoricalColumn("label", std::move(label)).ok());
  CCS_CHECK(df.AddNumericColumn("z", std::move(z)).ok());
  const std::pair<size_t, size_t> kGeometries[] = {{64, 10}, {50, 16}};
  for (const auto& [window, slide] : kGeometries) {
    for (size_t chunk : {3u, 7u, 13u, 33u}) {
      auto windower = Windower::Create(window, slide);
      ASSERT_TRUE(windower.ok());
      std::vector<DataFrame> windows;
      for (size_t begin = 0; begin < kRows; begin += chunk) {
        auto out = windower->Push(df.Slice(begin, begin + chunk));
        ASSERT_TRUE(out.ok()) << out.status();
        for (auto& w : *out) windows.push_back(std::move(w));
      }
      ASSERT_EQ(windows.size(), (kRows - window) / slide + 1)
          << "window " << window << " slide " << slide << " chunk " << chunk;
      for (size_t w = 0; w < windows.size(); ++w) {
        SCOPED_TRACE("window " + std::to_string(window) + " slide " +
                     std::to_string(slide) + " chunk " +
                     std::to_string(chunk) + " index " + std::to_string(w));
        ExpectFramesBitwiseEqual(windows[w],
                                 df.Slice(w * slide, w * slide + window));
      }
    }
  }
}

TEST(WindowerTest, EmptyChunkCompletesNothing) {
  auto windower = Windower::Create(4);
  ASSERT_TRUE(windower.ok());
  auto out = windower->Push(DataFrame());
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST(WindowerTest, RejectsChunkSchemaMismatch) {
  auto windower = Windower::Create(4);
  ASSERT_TRUE(windower.ok());
  ASSERT_TRUE(windower->Push(TrendFrame(3, 0.0, 40)).ok());
  DataFrame other;
  CCS_CHECK(other.AddNumericColumn("z", {1.0}).ok());
  auto out = windower->Push(other);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST(WindowerTest, ZeroRowChunkAdoptsAndValidatesSchema) {
  // A zero-row chunk that carries columns still participates in schema
  // adoption/validation; only the column-less placeholder is inert.
  DataFrame df = TrendFrame(8, 0.0, 41);
  auto windower = Windower::Create(4);
  ASSERT_TRUE(windower.ok());
  auto out = windower->Push(df.Slice(0, 0));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
  EXPECT_EQ(windower->buffered_rows(), 0u);
  // The schema was adopted from the empty chunk: mismatches now reject…
  DataFrame other;
  CCS_CHECK(other.AddNumericColumn("z", {1.0}).ok());
  EXPECT_FALSE(windower->Push(other).ok());
  // …and matching rows still flow.
  auto more = windower->Push(df);
  ASSERT_TRUE(more.ok()) << more.status();
  EXPECT_EQ(more->size(), 2u);
}

TEST(WindowerTest, StreamShorterThanOneWindowEmitsNothing) {
  auto windower = Windower::Create(50, 10);
  ASSERT_TRUE(windower.ok());
  auto out = windower->Push(TrendFrame(30, 0.0, 42));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
  EXPECT_EQ(windower->buffered_rows(), 30u);
  EXPECT_EQ(windower->windows_emitted(), 0u);
}

TEST(WindowerTest, TrailingSegmentShorterThanSlideIsNeverEmitted) {
  // 23 rows, window 10 slide 5: windows start at rows 0/5/10 (needing
  // rows through 19); the trailing 8 buffered rows include a final
  // segment shorter than the slide, and no flush ever emits a partial.
  DataFrame df = TrendFrame(23, 0.0, 43);
  auto windower = Windower::Create(10, 5);
  ASSERT_TRUE(windower.ok());
  auto out = windower->Push(df);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 3u);
  auto flush = windower->Push(df.Slice(0, 0));
  ASSERT_TRUE(flush.ok());
  EXPECT_TRUE(flush->empty());
  EXPECT_EQ(windower->buffered_rows(), 8u);
  EXPECT_EQ(windower->windows_emitted(), 3u);
}

TEST(WindowerTest, SlidingBufferCapacityIsStableAcross100Slides) {
  // The regression this pins: the rolling buffer used to be rebuilt by
  // Concat + Slice per emitted window (a fresh allocation every slide).
  // Now sliding consumes an offset and compacts in place, so after a
  // brief warm-up the buffer capacity must not move — and windows must
  // still come out right.
  constexpr size_t kWindow = 64;
  constexpr size_t kSlide = 16;
  constexpr size_t kChunk = 16;
  auto windower = Windower::Create(kWindow, kSlide);
  ASSERT_TRUE(windower.ok());

  DataFrame all = TrendFrame(kWindow + 102 * kSlide, 0.0, 41);
  size_t begin = 0;
  // Warm up until the first windows have been emitted.
  while (windower->windows_emitted() < 2) {
    ASSERT_TRUE(windower->Push(all.Slice(begin, begin + kChunk)).ok());
    begin += kChunk;
  }
  size_t warm_capacity = windower->buffer_capacity_rows();
  size_t warm_reallocs = windower->buffer_reallocs();
  ASSERT_GT(warm_capacity, 0u);

  size_t windows = windower->windows_emitted();
  while (windower->windows_emitted() < windows + 100) {
    auto out = windower->Push(all.Slice(begin, begin + kChunk));
    ASSERT_TRUE(out.ok());
    begin += kChunk;
    ASSERT_LE(begin, all.num_rows());
  }
  // 100 further slides: zero growth, zero reallocation.
  EXPECT_EQ(windower->buffer_capacity_rows(), warm_capacity);
  EXPECT_EQ(windower->buffer_reallocs(), warm_reallocs);
  // Each emit copied exactly one window of rows.
  EXPECT_EQ(windower->rows_copied_out(),
            windower->windows_emitted() * kWindow);

  // And the windows are the right rows: window w covers [w*slide,
  // w*slide + window).
  auto check = windower->Push(all.Slice(begin, begin + kChunk));
  ASSERT_TRUE(check.ok());
  size_t w = windower->windows_emitted() - check->size();
  for (const DataFrame& window : *check) {
    ASSERT_EQ(window.num_rows(), kWindow);
    for (size_t r = 0; r < kWindow; r += 13) {
      EXPECT_EQ(window.NumericValue(r, "x").value(),
                all.NumericValue(w * kSlide + r, "x").value());
    }
    ++w;
  }
}

TEST(WindowerTest, EmittedWindowsSurviveLaterPushesAndCompaction) {
  // Windows own their storage (sharing only the dictionary): pushing
  // more chunks — which compacts and overwrites the rolling buffer —
  // must not disturb previously emitted windows.
  DataFrame df = TrendFrame(90, 0.0, 42);
  CCS_CHECK(df.AddCategoricalColumn(
                  "label", [] {
                    std::vector<std::string> v;
                    for (int i = 0; i < 90; ++i) {
                      v.push_back(i % 3 == 0 ? "odd" : "even");
                    }
                    return v;
                  }())
                .ok());
  auto windower = Windower::Create(20, 10);
  ASSERT_TRUE(windower.ok());
  std::vector<DataFrame> kept;
  for (size_t begin = 0; begin < 90; begin += 9) {
    auto out = windower->Push(df.Slice(begin, begin + 9));
    ASSERT_TRUE(out.ok());
    for (auto& w : *out) kept.push_back(std::move(w));
  }
  ASSERT_GE(kept.size(), 5u);
  for (size_t w = 0; w < kept.size(); ++w) {
    for (size_t r = 0; r < 20; ++r) {
      EXPECT_EQ(kept[w].NumericValue(r, "y").value(),
                df.NumericValue(w * 10 + r, "y").value());
      EXPECT_EQ(kept[w].CategoricalValue(r, "label").value(),
                df.CategoricalValue(w * 10 + r, "label").value());
    }
  }
}

// TrendFrame plus a categorical column, so window checks cover the
// dictionary-code path too.
DataFrame LabeledTrendFrame(size_t n, uint64_t seed) {
  DataFrame df = TrendFrame(n, 0.0, seed);
  std::vector<std::string> label(n);
  for (size_t i = 0; i < n; ++i) {
    label[i] = "v" + std::to_string((i * 7 + seed) % 5);
  }
  CCS_CHECK(df.AddCategoricalColumn("label", std::move(label)).ok());
  return df;
}

TEST(WindowerTest, AlignedTumblingChunkIsEmittedWithoutCopy) {
  // A tumbling window that is exactly one chunk, arriving while nothing
  // is buffered, is the chunk itself: it shares the chunk's storage,
  // copies no row, and survives later pushes (the chunk's buffers are
  // immutable and shared).
  constexpr size_t kWindow = 30;
  auto windower = Windower::Create(kWindow);
  ASSERT_TRUE(windower.ok());
  std::vector<DataFrame> kept;
  for (uint64_t seed = 70; seed < 73; ++seed) {
    const DataFrame chunk = LabeledTrendFrame(kWindow, seed);
    auto out = windower->Push(chunk);
    ASSERT_TRUE(out.ok()) << out.status();
    ASSERT_EQ(out->size(), 1u);
    const DataFrame& window = (*out)[0];
    ASSERT_TRUE(window.schema() == chunk.schema());
    for (size_t c = 0; c < chunk.num_columns(); ++c) {
      if (chunk.column(c).is_numeric()) {
        EXPECT_EQ(window.column(c).numeric_buffer().data(),
                  chunk.column(c).numeric_buffer().data())
            << "column " << c;
      } else {
        EXPECT_EQ(window.column(c).code_buffer().data(),
                  chunk.column(c).code_buffer().data())
            << "column " << c;
      }
    }
    kept.push_back(std::move((*out)[0]));
  }
  EXPECT_EQ(windower->rows_copied_out(), 0u);
  EXPECT_EQ(windower->windows_emitted(), 3u);
  EXPECT_EQ(windower->buffered_rows(), 0u);

  // Later pushes go through the rolling buffers: a 45-row chunk
  // assembles (copies) one window and leaves 15 rows buffered.
  auto later = windower->Push(LabeledTrendFrame(45, 80));
  ASSERT_TRUE(later.ok()) << later.status();
  ASSERT_EQ(later->size(), 1u);
  ExpectFramesBitwiseEqual((*later)[0],
                           LabeledTrendFrame(45, 80).Slice(0, kWindow));
  EXPECT_EQ(windower->rows_copied_out(), kWindow);
  EXPECT_EQ(windower->buffered_rows(), 15u);
  for (size_t w = 0; w < kept.size(); ++w) {
    SCOPED_TRACE("kept window " + std::to_string(w));
    ExpectFramesBitwiseEqual(kept[w], LabeledTrendFrame(kWindow, 70 + w));
  }
}

TEST(WindowerTest, AlignedTumblingChunkStillChecksTheSchema) {
  // The copy-free path adopts the first chunk's schema and rejects a
  // mismatching chunk exactly as the buffered path does.
  DataFrame other;
  CCS_CHECK(other.AddNumericColumn("z", {1.0, 2.0, 3.0, 4.0}).ok());
  auto windower = Windower::Create(4);
  ASSERT_TRUE(windower.ok());
  ASSERT_TRUE(windower->Push(TrendFrame(4, 0.0, 74)).ok());
  auto rejected = windower->Push(other);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  // The schema adopted on the copy-free path also guards buffered rows.
  EXPECT_FALSE(windower->Push(other.Slice(0, 2)).ok());
  auto more = windower->Push(TrendFrame(4, 0.0, 75));
  ASSERT_TRUE(more.ok()) << more.status();
  EXPECT_EQ(more->size(), 1u);
  EXPECT_EQ(windower->rows_copied_out(), 0u);
}

TEST(WindowerTest, MisalignedChunksAndSlidingGeometryStillCopy) {
  // Only the aligned tumbling shape skips the copy: a short chunk, a
  // window-sized chunk arriving while rows are buffered, and every
  // sliding window are assembled in the rolling buffers, and each gives
  // the same window as its slice of the stream.
  constexpr size_t kWindow = 30;
  const DataFrame df = LabeledTrendFrame(300, 76);
  struct Case {
    size_t slide;
    std::vector<size_t> chunks;
    size_t copied_windows;  // Windows assembled in the rolling buffers.
  };
  const Case kCases[] = {
      // 30 (copy-free), 10 (buffered), 30 (arrives behind 10 buffered
      // rows: assembles rows 30..59), 20 (assembles 60..89), 30 (copy-free).
      {0, {30, 10, 30, 20, 30}, 2},
      // Short chunks only: every window is assembled.
      {0, {7, 7, 7, 7, 7, 7, 7, 7, 7}, 2},
      // Sliding windows never share a chunk, even window-sized ones.
      {10, {30, 30, 30, 30}, 10},
      {30, {30, 30, 30}, 0},  // An explicit slide of one window tumbles.
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE("slide " + std::to_string(c.slide) + ", " +
                 std::to_string(c.chunks.size()) + " chunks");
    auto windower = Windower::Create(kWindow, c.slide);
    ASSERT_TRUE(windower.ok());
    std::vector<DataFrame> windows;
    size_t begin = 0;
    for (size_t rows : c.chunks) {
      auto out = windower->Push(df.Slice(begin, begin + rows));
      ASSERT_TRUE(out.ok()) << out.status();
      for (auto& w : *out) windows.push_back(std::move(w));
      begin += rows;
    }
    const size_t step = c.slide == 0 ? kWindow : c.slide;
    ASSERT_EQ(windows.size(), (begin - kWindow) / step + 1);
    EXPECT_EQ(windower->rows_copied_out(), c.copied_windows * kWindow);
    for (size_t w = 0; w < windows.size(); ++w) {
      SCOPED_TRACE("window " + std::to_string(w));
      ExpectFramesBitwiseEqual(windows[w],
                               df.Slice(w * step, w * step + kWindow));
    }
  }
}

// ---------------------------- CsvChunkReader --------------------------

TEST(CsvChunkReaderTest, ChunksConcatenateToWholeFile) {
  DataFrame df = TrendFrame(57, 0.0, 3);
  CCS_CHECK(df.AddCategoricalColumn(
                  "label", std::vector<std::string>(57, "a"))
                .ok());
  std::string text = ToCsv(df);

  std::istringstream whole_in(text);
  auto whole = dataframe::ReadCsv(whole_in);
  ASSERT_TRUE(whole.ok());

  std::istringstream chunk_in(text);
  dataframe::CsvChunkReader reader(&chunk_in, whole->schema());
  DataFrame got;
  for (;;) {
    auto chunk = reader.ReadChunk(10);
    ASSERT_TRUE(chunk.ok()) << chunk.status();
    if (chunk->num_rows() == 0) break;
    if (got.num_columns() == 0) {
      got = std::move(*chunk);
    } else {
      auto merged = got.Concat(*chunk);
      ASSERT_TRUE(merged.ok());
      got = std::move(*merged);
    }
  }
  EXPECT_EQ(reader.rows_read(), 57u);
  ASSERT_EQ(got.num_rows(), whole->num_rows());
  ASSERT_TRUE(got.schema() == whole->schema());
  for (size_t r = 0; r < got.num_rows(); ++r) {
    EXPECT_EQ(got.NumericValue(r, "x").value(),
              whole->NumericValue(r, "x").value());
    EXPECT_EQ(got.CategoricalValue(r, "label").value(),
              whole->CategoricalValue(r, "label").value());
  }
}

TEST(CsvChunkReaderTest, ReordersAndIgnoresExtraColumns) {
  dataframe::Schema schema;
  CCS_CHECK(schema.AddAttribute("b", dataframe::AttributeType::kNumeric).ok());
  CCS_CHECK(
      schema.AddAttribute("a", dataframe::AttributeType::kCategorical).ok());
  std::istringstream in("a,junk,b\nu,9,1.5\nv,9,2.5\n");
  dataframe::CsvChunkReader reader(&in, schema);
  auto chunk = reader.ReadChunk(100);
  ASSERT_TRUE(chunk.ok()) << chunk.status();
  ASSERT_EQ(chunk->num_rows(), 2u);
  EXPECT_EQ(chunk->NumericValue(0, "b").value(), 1.5);
  EXPECT_EQ(chunk->CategoricalValue(1, "a").value(), "v");
}

TEST(CsvChunkReaderTest, MissingSchemaColumnIsError) {
  dataframe::Schema schema;
  CCS_CHECK(schema.AddAttribute("x", dataframe::AttributeType::kNumeric).ok());
  CCS_CHECK(schema.AddAttribute("y", dataframe::AttributeType::kNumeric).ok());
  std::istringstream in("x\n1\n");
  dataframe::CsvChunkReader reader(&in, schema);
  auto chunk = reader.ReadChunk(10);
  ASSERT_FALSE(chunk.ok());
  EXPECT_EQ(chunk.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvChunkReaderTest, UnparseableNumericCellIsDeferredError) {
  // The reader delivers every good row before the malformation, then
  // surfaces the structured error on the NEXT call — so downstream
  // teardown does not depend on where chunk boundaries fall.
  dataframe::Schema schema;
  CCS_CHECK(schema.AddAttribute("x", dataframe::AttributeType::kNumeric).ok());
  std::istringstream in("x\n1.0\noops\n2.0\n");
  dataframe::CsvChunkReader reader(&in, schema);
  auto prefix = reader.ReadChunk(10);
  ASSERT_TRUE(prefix.ok()) << prefix.status();
  ASSERT_EQ(prefix->num_rows(), 1u);
  EXPECT_EQ(prefix->NumericValue(0, "x").value(), 1.0);

  auto error = reader.ReadChunk(10);
  ASSERT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), StatusCode::kInvalidArgument);
  const std::string& msg = error.status().message();
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("data row 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("column 'x'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'oops'"), std::string::npos) << msg;
}

TEST(CsvChunkReaderTest, MalformedFirstRowOfChunkErrorsImmediately) {
  // No good prefix to deliver: the error comes straight back.
  dataframe::Schema schema;
  CCS_CHECK(schema.AddAttribute("x", dataframe::AttributeType::kNumeric).ok());
  std::istringstream in("x\noops\n");
  dataframe::CsvChunkReader reader(&in, schema);
  auto chunk = reader.ReadChunk(10);
  ASSERT_FALSE(chunk.ok());
  EXPECT_EQ(chunk.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(chunk.status().message().find("line 2"), std::string::npos);
}

TEST(CsvChunkReaderTest, RaggedRowReportsFieldCounts) {
  dataframe::Schema schema;
  CCS_CHECK(schema.AddAttribute("x", dataframe::AttributeType::kNumeric).ok());
  CCS_CHECK(schema.AddAttribute("y", dataframe::AttributeType::kNumeric).ok());
  std::istringstream in("x,y\n1,2\n3,4,5\n");
  dataframe::CsvChunkReader reader(&in, schema);
  auto prefix = reader.ReadChunk(10);
  ASSERT_TRUE(prefix.ok()) << prefix.status();
  ASSERT_EQ(prefix->num_rows(), 1u);
  auto error = reader.ReadChunk(10);
  ASSERT_FALSE(error.ok());
  const std::string& msg = error.status().message();
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("has 3 fields, expected 2"), std::string::npos) << msg;
}

TEST(CsvChunkReaderTest, UnterminatedQuoteReportsPhysicalLine) {
  dataframe::Schema schema;
  CCS_CHECK(
      schema.AddAttribute("a", dataframe::AttributeType::kCategorical).ok());
  std::istringstream in("a\nok\n\"never closed\n");
  dataframe::CsvChunkReader reader(&in, schema);
  auto prefix = reader.ReadChunk(10);
  ASSERT_TRUE(prefix.ok()) << prefix.status();
  ASSERT_EQ(prefix->num_rows(), 1u);
  auto error = reader.ReadChunk(10);
  ASSERT_FALSE(error.ok());
  const std::string& msg = error.status().message();
  EXPECT_NE(msg.find("unterminated quoted field"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
}

TEST(CsvChunkReaderTest, LineNumbersTrackNewlinesInsideQuotedFields) {
  // The embedded newline in row 1's quoted cell occupies a physical
  // line, so the malformed row 3 sits on physical line 5.
  dataframe::Schema schema;
  CCS_CHECK(
      schema.AddAttribute("a", dataframe::AttributeType::kCategorical).ok());
  CCS_CHECK(schema.AddAttribute("x", dataframe::AttributeType::kNumeric).ok());
  std::istringstream in("a,x\n\"two\nlines\",1\nok,2\nbad,oops\n");
  dataframe::CsvChunkReader reader(&in, schema);
  auto prefix = reader.ReadChunk(10);
  ASSERT_TRUE(prefix.ok()) << prefix.status();
  ASSERT_EQ(prefix->num_rows(), 2u);
  EXPECT_EQ(prefix->CategoricalValue(0, "a").value(), "two\nlines");
  auto error = reader.ReadChunk(10);
  ASSERT_FALSE(error.ok());
  const std::string& msg = error.status().message();
  EXPECT_NE(msg.find("line 5"), std::string::npos) << msg;
  EXPECT_NE(msg.find("data row 3"), std::string::npos) << msg;
}

TEST(CsvChunkReaderTest, GoodPrefixIsChunkSizeIndependent) {
  dataframe::Schema schema;
  CCS_CHECK(schema.AddAttribute("x", dataframe::AttributeType::kNumeric).ok());
  const std::string text = "x\n1\n2\n3\n4\noops\n";
  for (size_t chunk_rows : {1u, 2u, 3u, 100u}) {
    std::istringstream in(text);
    dataframe::CsvChunkReader reader(&in, schema);
    std::vector<double> got;
    Status terminal = Status::OK();
    for (;;) {
      auto chunk = reader.ReadChunk(chunk_rows);
      if (!chunk.ok()) {
        terminal = chunk.status();
        break;
      }
      if (chunk->num_rows() == 0) break;
      for (size_t r = 0; r < chunk->num_rows(); ++r) {
        got.push_back(chunk->NumericValue(r, "x").value());
      }
    }
    EXPECT_EQ(got, (std::vector<double>{1, 2, 3, 4})) << chunk_rows;
    ASSERT_FALSE(terminal.ok()) << chunk_rows;
    EXPECT_NE(terminal.message().find("line 6"), std::string::npos)
        << chunk_rows << ": " << terminal.message();
  }
}

TEST(CsvChunkReaderTest, HeaderlessMapsPositionally) {
  dataframe::Schema schema;
  CCS_CHECK(schema.AddAttribute("x", dataframe::AttributeType::kNumeric).ok());
  CCS_CHECK(
      schema.AddAttribute("tag", dataframe::AttributeType::kCategorical).ok());
  dataframe::CsvOptions options;
  options.has_header = false;
  std::istringstream in("1.25,hot\n2.5,cold\n");
  dataframe::CsvChunkReader reader(&in, schema, options);
  auto chunk = reader.ReadChunk(10);
  ASSERT_TRUE(chunk.ok()) << chunk.status();
  ASSERT_EQ(chunk->num_rows(), 2u);
  EXPECT_EQ(chunk->NumericValue(1, "x").value(), 2.5);
  EXPECT_EQ(chunk->CategoricalValue(0, "tag").value(), "hot");
}

// A live source: each underflow releases exactly one more line (as a
// paced stream does when the next row falls due) and is counted, and
// every bulk read is checked against what the get area holds.
class LinePerUnderflowStreambuf : public std::streambuf {
 public:
  explicit LinePerUnderflowStreambuf(std::vector<std::string> lines)
      : lines_(std::move(lines)) {}

  size_t underflows() const { return underflows_; }
  // Bulk reads that asked for more bytes than were available.
  size_t overreads() const { return overreads_; }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    ++underflows_;
    if (next_ == lines_.size()) return traits_type::eof();
    std::string& line = lines_[next_++];
    setg(line.data(), line.data(), line.data() + line.size());
    return traits_type::to_int_type(*gptr());
  }

  std::streamsize xsgetn(char* s, std::streamsize n) override {
    if (n > egptr() - gptr()) ++overreads_;
    return std::streambuf::xsgetn(s, n);
  }

 private:
  std::vector<std::string> lines_;
  size_t next_ = 0;
  size_t underflows_ = 0;
  size_t overreads_ = 0;
};

TEST(CsvChunkReaderTest, ReturnsOnceChunkCompleteWithoutWaitingForMore) {
  // Blocking in an underflow the chunk does not need would hold every
  // completed row of a live stream until the next row falls due.
  dataframe::Schema schema;
  CCS_CHECK(schema.AddAttribute("x", dataframe::AttributeType::kNumeric).ok());
  CCS_CHECK(
      schema.AddAttribute("tag", dataframe::AttributeType::kCategorical).ok());
  LinePerUnderflowStreambuf buf(
      {"x,tag\n", "1,a\n", "2,b\r\n", "3,c\n", "4,d\n", "5,e\n", "6,f\n"});
  std::istream in(&buf);
  dataframe::CsvChunkReader reader(&in, schema);

  auto first = reader.ReadChunk(2);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_EQ(first->num_rows(), 2u);
  EXPECT_EQ(buf.underflows(), 3u);  // Header + two rows, nothing more.

  auto second = reader.ReadChunk(3);
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_EQ(second->num_rows(), 3u);
  EXPECT_EQ(second->NumericValue(0, "x").value(), 3.0);
  EXPECT_EQ(second->CategoricalValue(2, "tag").value(), "e");
  EXPECT_EQ(buf.underflows(), 6u);

  auto rest = reader.ReadChunk(10);
  ASSERT_TRUE(rest.ok()) << rest.status();
  ASSERT_EQ(rest->num_rows(), 1u);
  EXPECT_EQ(buf.underflows(), 8u);  // The last row, then end of stream.
  EXPECT_EQ(reader.rows_read(), 6u);
  EXPECT_EQ(reader.lines_consumed(), 7u);
  EXPECT_EQ(buf.overreads(), 0u);
}

// --------------------- StreamMonitor empty window ---------------------

TEST(StreamMonitorTest, EmptyWindowIsCleanInvalidArgument) {
  DataFrame reference = TrendFrame(100, 0.0, 4);
  auto monitor = StreamMonitor::Create(reference, 0.1);
  ASSERT_TRUE(monitor.ok());

  auto score = monitor->ObserveWindow(reference.Slice(0, 0));
  ASSERT_FALSE(score.ok());
  EXPECT_EQ(score.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(score.status().message().find("empty window"), std::string::npos);
  EXPECT_TRUE(monitor->history().empty());  // History not advanced.

  auto batch = monitor->ObserveWindows({reference.Slice(0, 10),
                                        reference.Slice(0, 0)});
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(monitor->history().empty());
}

// ------------------------ RefreshReference hook ------------------------

TEST(StreamMonitorTest, RefreshReferenceSwapsProfile) {
  DataFrame reference = TrendFrame(300, 0.0, 5);
  DataFrame drifted = TrendFrame(300, 6.0, 6);
  auto monitor = StreamMonitor::Create(reference, 0.3);
  ASSERT_TRUE(monitor.ok());

  auto before = monitor->ObserveWindow(drifted);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before->alarm);

  // Re-profile on the drifted distribution and swap it in: the same
  // window must now conform.
  IncrementalSynthesizer profile({"x", "y"});
  ASSERT_TRUE(profile.ObserveAll(drifted).ok());
  auto refreshed = profile.Synthesize();
  ASSERT_TRUE(refreshed.ok());
  ASSERT_TRUE(monitor->RefreshReference(*refreshed).ok());

  auto after = monitor->ObserveWindow(drifted);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->alarm);
  EXPECT_LT(after->drift, before->drift);
  // History and threshold survive the swap.
  ASSERT_EQ(monitor->history().size(), 2u);
  EXPECT_EQ(monitor->history()[1].window_index, 1u);
}

TEST(StreamMonitorTest, RefreshReferenceRejectsEmptyConstraint) {
  DataFrame reference = TrendFrame(50, 0.0, 7);
  auto monitor = StreamMonitor::Create(reference, 0.1);
  ASSERT_TRUE(monitor.ok());
  EXPECT_EQ(monitor->RefreshReference(core::SimpleConstraint()).code(),
            StatusCode::kInvalidArgument);
}

// ----------------------- IncrementalSynthesizer -----------------------

TEST(IncrementalSynthesizerTest, MergeEmptyOtherIsNoOp) {
  DataFrame df = TrendFrame(120, 0.0, 8);
  IncrementalSynthesizer a({"x", "y"});
  ASSERT_TRUE(a.ObserveAll(df).ok());
  auto before = a.Synthesize();
  ASSERT_TRUE(before.ok());

  IncrementalSynthesizer empty({"x", "y"});
  ASSERT_TRUE(a.Merge(empty).ok());
  EXPECT_EQ(a.count(), 120);
  auto after = a.Synthesize();
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(core::ConstraintsBitwiseEqual(*before, *after));
}

TEST(IncrementalSynthesizerTest, ManyWayMergeMatchesWholeIngestion) {
  // Partition-parallel ingestion: four shards accumulated independently
  // then merged must profile like one accumulator fed everything.
  DataFrame df = TrendFrame(400, 0.0, 9);
  IncrementalSynthesizer whole({"x", "y"});
  ASSERT_TRUE(whole.ObserveAll(df).ok());

  IncrementalSynthesizer merged({"x", "y"});
  for (size_t begin = 0; begin < 400; begin += 100) {
    IncrementalSynthesizer shard({"x", "y"});
    ASSERT_TRUE(shard.ObserveAll(df.Slice(begin, begin + 100)).ok());
    ASSERT_TRUE(merged.Merge(shard).ok());
  }
  EXPECT_EQ(merged.count(), whole.count());

  auto a = whole.Synthesize();
  auto b = merged.Synthesize();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->conjuncts().size(), b->conjuncts().size());
  for (size_t k = 0; k < a->conjuncts().size(); ++k) {
    EXPECT_NEAR(a->conjuncts()[k].mean(), b->conjuncts()[k].mean(), 1e-9);
    EXPECT_NEAR(a->conjuncts()[k].stddev(), b->conjuncts()[k].stddev(), 1e-9);
    EXPECT_NEAR(a->conjuncts()[k].lb(), b->conjuncts()[k].lb(), 1e-9);
    EXPECT_NEAR(a->conjuncts()[k].ub(), b->conjuncts()[k].ub(), 1e-9);
  }
}

TEST(IncrementalSynthesizerTest, SynthesizeWithNoObservationsFails) {
  IncrementalSynthesizer empty({"x", "y"});
  EXPECT_FALSE(empty.Synthesize().ok());
}

// --------------------------- StreamPipeline ---------------------------

// The serial reference implementation the pipeline must match bitwise:
// parse each segment, window it afresh (as each Run does), ObserveWindow
// every window in order, and mirror the pipeline's refresh cadence over
// the whole history.
std::vector<WindowScore> SerialLoop(
    const DataFrame& reference, const std::vector<std::string>& segments,
    const StreamPipelineOptions& options,
    const dataframe::CsvOptions& csv_options = dataframe::CsvOptions()) {
  auto monitor = StreamMonitor::Create(reference, options.alarm_threshold,
                                       options.synthesis);
  CCS_CHECK(monitor.ok());
  IncrementalSynthesizer profile(reference.NumericNames(), options.synthesis);
  if (options.refresh_every > 0) {
    CCS_CHECK(profile.ObserveAll(reference).ok());
  }
  for (const std::string& csv_text : segments) {
    std::istringstream in(csv_text);
    auto stream_df = dataframe::ReadCsv(in, csv_options);
    CCS_CHECK(stream_df.ok());
    auto windower = Windower::Create(options.window_rows, options.slide_rows);
    CCS_CHECK(windower.ok());
    auto windows = windower->Push(*stream_df);
    CCS_CHECK(windows.ok());
    for (const DataFrame& window : *windows) {
      CCS_CHECK(monitor->ObserveWindow(window).ok());
      if (options.refresh_every > 0) {
        CCS_CHECK(profile.ObserveAll(window).ok());
        if (monitor->history_size() % options.refresh_every == 0) {
          auto refreshed = profile.Synthesize();
          CCS_CHECK(refreshed.ok());
          CCS_CHECK(monitor->RefreshReference(*refreshed).ok());
        }
      }
    }
  }
  return monitor->history();
}

void ExpectHistoriesBitwiseEqual(const std::vector<WindowScore>& a,
                                 const std::vector<WindowScore>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].window_index, b[i].window_index) << "window " << i;
    // Bit patterns, not ==: -0.0 must not pass for +0.0, and a NaN must
    // match its own copy.
    EXPECT_EQ(DoubleBits(a[i].drift), DoubleBits(b[i].drift))
        << "window " << i << ": " << a[i].drift << " vs " << b[i].drift;
    EXPECT_EQ(a[i].alarm, b[i].alarm) << "window " << i;
  }
}

class StreamPipelineTest : public ::testing::Test {
 protected:
  // Force multi-lane dispatch even on single-core machines.
  void SetUp() override { common::SetDefaultThreadCount(4); }
  void TearDown() override { common::SetDefaultThreadCount(0); }
};

TEST_F(StreamPipelineTest, MatchesSerialLoopBitwise) {
  DataFrame reference = TrendFrame(400, 0.0, 10);
  // Drift starts halfway through the stream.
  std::string csv_text = ToCsv(TrendFrame(730, 6.0, 11, /*drift_from=*/365));

  StreamPipelineOptions options;
  options.window_rows = 50;
  options.alarm_threshold = 0.2;
  options.chunk_rows = 37;      // Deliberately window-misaligned.
  options.queue_capacity = 2;   // Exercise backpressure.
  options.max_batch_windows = 3;

  std::vector<WindowScore> serial = SerialLoop(reference, {csv_text}, options);
  ASSERT_FALSE(serial.empty());
  // The scenario is meaningful: clean head, drifted tail.
  EXPECT_FALSE(serial.front().alarm);
  EXPECT_TRUE(serial.back().alarm);

  for (size_t threads : {1u, 4u}) {
    options.num_threads = threads;
    auto pipeline = StreamPipeline::Create(reference, options);
    ASSERT_TRUE(pipeline.ok());
    std::istringstream in(csv_text);
    size_t callbacks = 0;
    auto stats = pipeline->Run(in, [&](const WindowScore&) { ++callbacks; });
    ASSERT_TRUE(stats.ok()) << stats.status;
    EXPECT_EQ(stats->rows_ingested, 730u);
    EXPECT_EQ(stats->windows_scored, serial.size());
    // Tumbling windows share no rows: each is scored whole.
    EXPECT_EQ(stats->rows_scored, serial.size() * options.window_rows);
    EXPECT_EQ(callbacks, serial.size());
    ExpectHistoriesBitwiseEqual(pipeline->history(), serial);
  }
}

TEST_F(StreamPipelineTest, MatchesSerialLoopWithSlideAndRefresh) {
  DataFrame reference = TrendFrame(300, 0.0, 12);
  std::string csv_text = ToCsv(TrendFrame(600, 5.0, 13, /*drift_from=*/300));

  StreamPipelineOptions options;
  options.window_rows = 60;
  options.alarm_threshold = 0.25;
  options.refresh_every = 3;    // Periodic incremental re-synthesis.
  options.chunk_rows = 41;
  options.queue_capacity = 2;

  // Tumbling, then sliding windows at a long and a short step.
  for (size_t slide : {0u, 25u, 7u}) {
    options.slide_rows = slide;
    std::vector<WindowScore> serial =
        SerialLoop(reference, {csv_text}, options);
    ASSERT_FALSE(serial.empty());
    // The first window, and the window after each refresh, are scored
    // whole; every other window scores only the rows its step brings in.
    const size_t step = slide ? slide : options.window_rows;
    const size_t whole = 1 + (serial.size() - 1) / options.refresh_every;

    for (size_t batch : {1u, 4u}) {
      for (size_t threads : {1u, 4u}) {
        SCOPED_TRACE("slide " + std::to_string(slide) + " batch " +
                     std::to_string(batch) + " threads " +
                     std::to_string(threads));
        options.max_batch_windows = batch;
        options.num_threads = threads;
        auto pipeline = StreamPipeline::Create(reference, options);
        ASSERT_TRUE(pipeline.ok());
        std::istringstream in(csv_text);
        auto stats = pipeline->Run(in);
        ASSERT_TRUE(stats.ok()) << stats.status;
        EXPECT_EQ(stats->refreshes, serial.size() / options.refresh_every);
        EXPECT_EQ(stats->rows_scored,
                  serial.size() * step + whole * (options.window_rows - step));
        ExpectHistoriesBitwiseEqual(pipeline->history(), serial);
      }
    }
  }
}

TEST_F(StreamPipelineTest, TracingOnVsOffBitwise) {
  // The observability contract: an active ObsSession records spans and
  // queue waits strictly out-of-band, so scored output is bitwise
  // identical with tracing on or off, at any thread count.
  DataFrame reference = TrendFrame(300, 0.0, 30);
  std::string csv_text = ToCsv(TrendFrame(620, 5.0, 31, /*drift_from=*/310));

  StreamPipelineOptions options;
  options.window_rows = 60;
  options.slide_rows = 25;
  options.alarm_threshold = 0.25;
  options.refresh_every = 3;
  options.chunk_rows = 41;
  options.queue_capacity = 2;
  options.max_batch_windows = 4;

  for (size_t threads : {1u, 4u}) {
    options.num_threads = threads;

    auto untraced = StreamPipeline::Create(reference, options);
    ASSERT_TRUE(untraced.ok());
    std::istringstream in_off(csv_text);
    ASSERT_TRUE(untraced->Run(in_off).ok());

    auto traced = StreamPipeline::Create(reference, options);
    ASSERT_TRUE(traced.ok());
    std::istringstream in_on(csv_text);
    {
      obs::ObsSession session;
      ASSERT_TRUE(traced->Run(in_on).ok());
      // The session actually observed the run: stage spans exist and
      // the export is non-trivial.
      std::vector<obs::TraceEvent> events = session.Collect();
      EXPECT_FALSE(events.empty());
      bool saw_score = false;
      for (const obs::TraceEvent& ev : events) {
        if (std::string(ev.name) == "stream.score") saw_score = true;
      }
      EXPECT_TRUE(saw_score);
      EXPECT_NE(session.ToChromeTraceJson().find("\"ph\":\"X\""),
                std::string::npos);
    }

    ExpectHistoriesBitwiseEqual(traced->history(), untraced->history());
  }
}

TEST_F(StreamPipelineTest, ThreadCountBoundsIngestLanes) {
  // num_threads bounds ingest as well as scoring: a 1-lane run never
  // touches the pool, and a 4-lane run converts its 1024-row chunks in
  // row blocks there. One window per batch, each below the scorer's row
  // block, keeps scoring off the pool, so every pool.task must fall
  // inside a stream.ingest span.
  DataFrame reference = TrendFrame(400, 0.0, 72);
  std::string csv_text = ToCsv(TrendFrame(4608, 5.0, 73, /*drift_from=*/2304));

  StreamPipelineOptions options;
  options.window_rows = 512;
  options.alarm_threshold = 0.2;
  options.chunk_rows = 1024;
  options.max_batch_windows = 1;

  struct Observed {
    std::vector<WindowScore> history;
    size_t pool_tasks = 0;
    size_t ingest_pool_tasks = 0;
  };
  auto run = [&](size_t lanes) {
    options.num_threads = lanes;
    auto pipeline = StreamPipeline::Create(reference, options);
    CCS_CHECK(pipeline.ok());
    std::istringstream in(csv_text);
    Observed observed;
    obs::ObsSession session;
    CCS_CHECK(pipeline->Run(in).ok());
    const std::vector<obs::TraceEvent> events = session.Collect();
    std::vector<const obs::TraceEvent*> ingest;
    size_t tokenize = 0, convert = 0;
    for (const obs::TraceEvent& ev : events) {
      const std::string name = ev.name;
      if (name == "stream.ingest") ingest.push_back(&ev);
      tokenize += name == "csv.tokenize";
      convert += name == "csv.convert";
    }
    // One csv.tokenize and one csv.convert per ReadChunk: 5 chunks, then
    // end of stream.
    EXPECT_EQ(ingest.size(), 6u);
    EXPECT_EQ(tokenize, ingest.size());
    EXPECT_EQ(convert, ingest.size());
    for (const obs::TraceEvent& ev : events) {
      if (std::string(ev.name) != "pool.task") continue;
      ++observed.pool_tasks;
      for (const obs::TraceEvent* read : ingest) {
        if (ev.start_ns >= read->start_ns &&
            ev.start_ns + ev.dur_ns <= read->start_ns + read->dur_ns) {
          ++observed.ingest_pool_tasks;
          break;
        }
      }
    }
    observed.history = pipeline->history();
    return observed;
  };
  const Observed serial = run(1);
  const Observed parallel = run(4);
  EXPECT_EQ(serial.pool_tasks, 0u);
  EXPECT_GT(parallel.pool_tasks, 0u);
  EXPECT_EQ(parallel.ingest_pool_tasks, parallel.pool_tasks);
  ASSERT_EQ(serial.history.size(), 4608u / 512u);
  ExpectHistoriesBitwiseEqual(parallel.history, serial.history);
}

// ------------------------- Score-once oracles -------------------------
//
// A sliding window scores only the rows it adds and reuses the
// violations of the rows it shares with the window before it; a window
// is scored whole at the start of every Run, after a refresh, and after
// a quarantined window. Each test pins the pipeline to the serial
// ObserveWindow loop, bit patterns compared, at 1 and 4 lanes.

// y = x + 2 where mode is "a", y = x - 2 where it is "b": a reference
// whose profile carries a disjunction on `mode`.
DataFrame ModeFrame(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n), y(n);
  std::vector<std::string> mode(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Uniform(-5.0, 5.0);
    mode[i] = i % 3 == 0 ? "b" : "a";
    y[i] = x[i] + (mode[i] == "a" ? 2.0 : -2.0) + rng.Gaussian(0.0, 0.1);
  }
  DataFrame df;
  CCS_CHECK(df.AddNumericColumn("x", std::move(x)).ok());
  CCS_CHECK(df.AddNumericColumn("y", std::move(y)).ok());
  CCS_CHECK(df.AddCategoricalColumn("mode", mode).ok());
  return df;
}

// A ModeFrame-shaped stream as CSV. From row `unseen_from` on, every
// fifth row takes mode "c", which the reference never saw, so the
// windower's dictionary grows inside a window. Row 70 has an empty x
// cell (NaN under NanCells()); rows 140 and 141 hold +inf and -inf.
std::string ModeStreamCsv(size_t n, uint64_t seed, size_t unseen_from) {
  Rng rng(seed);
  std::ostringstream out;
  out << "x,y,mode\n";
  for (size_t i = 0; i < n; ++i) {
    const double x = rng.Uniform(-5.0, 5.0);
    std::string mode = i % 3 == 0 ? "b" : "a";
    if (i >= unseen_from && i % 5 == 0) mode = "c";
    const double y =
        x + (mode == "b" ? -2.0 : 2.0) + rng.Gaussian(0.0, 0.1);
    out << (i == 70 ? "" : i == 140 ? "inf" : FormatDouble(x)) << ","
        << (i == 141 ? "-inf" : FormatDouble(y)) << "," << mode << "\n";
  }
  return out.str();
}

// Empty numeric cells parse as NaN.
dataframe::CsvOptions NanCells() {
  dataframe::CsvOptions options;
  options.missing_numeric = std::numeric_limits<double>::quiet_NaN();
  return options;
}

TEST_F(StreamPipelineTest, ScoreOnceMatchesSerialLoopOnDisjunctiveStream) {
  DataFrame reference = ModeFrame(400, 50);
  const std::string csv_text = ModeStreamCsv(240, 51, /*unseen_from=*/113);

  StreamPipelineOptions options;
  options.window_rows = 40;
  options.alarm_threshold = 0.25;
  options.chunk_rows = 13;
  // 1, window - 1, and a slide that does not divide the window.
  for (size_t slide : {1u, 39u, 7u}) {
    options.slide_rows = slide;
    std::vector<WindowScore> serial =
        SerialLoop(reference, {csv_text}, options, NanCells());
    ASSERT_EQ(serial.size(), (240 - 40) / slide + 1);
    // The scenario is meaningful: rows with the unseen value violate the
    // disjunction fully, so the tail scores above the head.
    EXPECT_GT(serial.back().drift, serial.front().drift) << "slide " << slide;

    for (size_t batch : {1u, 4u}) {
      for (size_t threads : {1u, 4u}) {
        SCOPED_TRACE("slide " + std::to_string(slide) + " batch " +
                     std::to_string(batch) + " threads " +
                     std::to_string(threads));
        options.max_batch_windows = batch;
        options.num_threads = threads;
        auto pipeline = StreamPipeline::Create(reference, options);
        ASSERT_TRUE(pipeline.ok()) << pipeline.status();
        ASSERT_FALSE(pipeline->monitor()
                         .reference_constraint()
                         .disjunctions()
                         .empty());
        std::istringstream in(csv_text);
        auto result = pipeline->Run(in, nullptr, NanCells());
        ASSERT_TRUE(result.ok()) << result.status;
        // Only the first window is scored whole.
        EXPECT_EQ(result->rows_scored,
                  options.window_rows + (serial.size() - 1) * slide);
        ExpectHistoriesBitwiseEqual(pipeline->history(), serial);
      }
    }
  }
}

TEST_F(StreamPipelineTest, ScoreOnceStartsFreshEachRun) {
  // Window ordinals continue across Runs but each Run windows its
  // segment afresh: the second segment's first window must not chain
  // onto the first segment's last window. The segments are not split on
  // a window boundary, and the second brings an unseen switch value.
  DataFrame reference = ModeFrame(400, 54);
  const std::string first = ModeStreamCsv(150, 55, /*unseen_from=*/1000);
  const std::string second = ModeStreamCsv(130, 56, /*unseen_from=*/60);

  StreamPipelineOptions options;
  options.window_rows = 40;
  options.slide_rows = 7;
  options.alarm_threshold = 0.25;
  options.chunk_rows = 11;
  std::vector<WindowScore> serial =
      SerialLoop(reference, {first, second}, options, NanCells());
  const size_t first_windows = (150 - 40) / 7 + 1;
  ASSERT_EQ(serial.size(), first_windows + (130 - 40) / 7 + 1);

  for (size_t batch : {1u, 4u}) {
    for (size_t threads : {1u, 4u}) {
      SCOPED_TRACE("batch " + std::to_string(batch) + " threads " +
                   std::to_string(threads));
      options.max_batch_windows = batch;
      options.num_threads = threads;
      auto pipeline = StreamPipeline::Create(reference, options);
      ASSERT_TRUE(pipeline.ok()) << pipeline.status();
      for (const std::string* segment : {&first, &second}) {
        std::istringstream in(*segment);
        auto result = pipeline->Run(in, nullptr, NanCells());
        ASSERT_TRUE(result.ok()) << result.status;
      }
      ExpectHistoriesBitwiseEqual(pipeline->history(), serial);
    }
  }
}

TEST_F(StreamPipelineTest, ScoreOnceRescoresWholeWindowAfterQuarantine) {
  // A score-quarantined window is consumed but never scored, so the
  // window after it shares only window - 2 * slide rows with the last
  // scored window: it must be scored whole.
  DataFrame reference = TrendFrame(300, 0.0, 57);
  const std::string csv_text =
      ToCsv(TrendFrame(400, 5.0, 58, /*drift_from=*/200));

  StreamPipelineOptions options;
  options.window_rows = 40;
  options.slide_rows = 9;
  options.alarm_threshold = 0.25;
  options.chunk_rows = 17;
  options.score_policy.mode = FailureMode::kQuarantine;
  std::vector<WindowScore> serial = SerialLoop(reference, {csv_text}, options);
  ASSERT_EQ(serial.size(), (400u - 40) / 9 + 1);

  // Quarantine the 12th window (hit ordinal 12): the history skips it
  // and the later windows' indices close up.
  constexpr size_t kQuarantined = 12;
  std::vector<WindowScore> expected;
  for (size_t i = 0; i < serial.size(); ++i) {
    if (i + 1 == kQuarantined) continue;
    expected.push_back(serial[i]);
    expected.back().window_index = expected.size() - 1;
  }
  common::fault::FaultSpec spec;
  common::fault::FaultPoint p;
  p.point = "stream.score.window";
  p.at = kQuarantined;
  p.code = "internal";
  spec.points.push_back(p);

  for (size_t batch : {1u, 4u}) {
    for (size_t threads : {1u, 4u}) {
      SCOPED_TRACE("batch " + std::to_string(batch) + " threads " +
                   std::to_string(threads));
      options.max_batch_windows = batch;
      options.num_threads = threads;
      auto pipeline = StreamPipeline::Create(reference, options);
      ASSERT_TRUE(pipeline.ok()) << pipeline.status();
      ASSERT_TRUE(common::fault::Injector::Global().Arm(spec).ok());
      std::istringstream in(csv_text);
      auto result = pipeline->Run(in);
      common::fault::Injector::Global().Disarm();
      ASSERT_TRUE(result.ok()) << result.status;
      EXPECT_EQ(result->windows_quarantined, 1u);
      // Two windows are scored whole: the first, and the one after the
      // quarantined window.
      EXPECT_EQ(result->rows_scored,
                expected.size() * options.slide_rows +
                    2 * (options.window_rows - options.slide_rows));
      ExpectHistoriesBitwiseEqual(pipeline->history(), expected);
    }
  }
}

// `csv_text` without data rows [begin, end) (0-based, header kept).
std::string WithoutRows(const std::string& csv_text, size_t begin,
                        size_t end) {
  std::istringstream in(csv_text);
  std::string line;
  std::string out;
  std::getline(in, line);
  out += line + "\n";
  for (size_t row = 0; std::getline(in, line); ++row) {
    if (row < begin || row >= end) out += line + "\n";
  }
  return out;
}

TEST_F(StreamPipelineTest, WindowQuarantineDropsOneChunkAtAnyQueueDepth) {
  // A window-stage fault on chunk k quarantines that chunk: one "window"
  // record (index = chunk ordinal, rows_lost = its rows), and the
  // Windower never sees its rows, so the history is the serial loop's
  // over the stream without them. Each 64-row chunk completes more
  // windows than one batch takes (window 8, cap 3), so windows wait
  // pending across batches and refresh boundaries; none of that may
  // move a bit at any queue depth or lane count.
  constexpr size_t kRows = 640;
  constexpr size_t kChunk = 64;
  constexpr size_t kDropped = 3;  // 1-based chunk ordinal.
  DataFrame reference = TrendFrame(300, 0.0, 62);
  const std::string csv_text =
      ToCsv(TrendFrame(kRows, 5.0, 63, /*drift_from=*/kRows / 2));
  const std::string kept_text =
      WithoutRows(csv_text, (kDropped - 1) * kChunk, kDropped * kChunk);

  StreamPipelineOptions options;
  options.window_rows = 8;
  options.alarm_threshold = 0.25;
  options.chunk_rows = kChunk;
  options.max_batch_windows = 3;
  options.refresh_every = 5;
  options.window_policy.mode = FailureMode::kQuarantine;
  common::fault::FaultSpec spec;
  common::fault::FaultPoint p;
  p.point = "stream.window.push";
  p.at = kDropped;
  p.code = "internal";
  spec.points.push_back(p);

  for (size_t slide : {0u, 3u}) {
    options.slide_rows = slide;
    const std::vector<WindowScore> expected =
        SerialLoop(reference, {kept_text}, options);
    ASSERT_FALSE(expected.empty());
    // Meaningful: a clean head, and the drift alarms before the
    // refreshes absorb it.
    EXPECT_FALSE(expected.front().alarm);
    EXPECT_TRUE(std::any_of(expected.begin(), expected.end(),
                            [](const WindowScore& s) { return s.alarm; }));
    for (size_t capacity : {1u, 4u}) {
      for (size_t threads : {1u, 4u}) {
        SCOPED_TRACE("slide " + std::to_string(slide) + " queue " +
                     std::to_string(capacity) + " threads " +
                     std::to_string(threads));
        options.queue_capacity = capacity;
        options.num_threads = threads;
        auto pipeline = StreamPipeline::Create(reference, options);
        ASSERT_TRUE(pipeline.ok()) << pipeline.status();
        ASSERT_TRUE(common::fault::Injector::Global().Arm(spec).ok());
        std::istringstream in(csv_text);
        auto result = pipeline->Run(in);
        common::fault::Injector::Global().Disarm();
        ASSERT_TRUE(result.ok()) << result.status;
        EXPECT_EQ(result->rows_ingested, kRows);
        EXPECT_EQ(result->faults_injected, 1u);
        ASSERT_EQ(result->quarantine.size(), 1u);
        EXPECT_EQ(result->quarantine[0].stage, "window");
        EXPECT_EQ(result->quarantine[0].index, kDropped);
        EXPECT_EQ(result->quarantine[0].rows_lost, kChunk);
        EXPECT_EQ(result->rows_quarantined, kChunk);
        EXPECT_EQ(result->windows_quarantined, 0u);
        EXPECT_EQ(result->windows_scored, expected.size());
        if (slide == 0) {
          // A chunk's 8 windows are pending at once; at most cap - 1
          // more can be ahead of them.
          EXPECT_GE(result->window_queue_peak, kChunk / 8);
          EXPECT_LE(result->window_queue_peak,
                    kChunk / 8 + options.max_batch_windows - 1);
        }
        ExpectHistoriesBitwiseEqual(pipeline->history(), expected);
      }
    }
  }
}

TEST_F(StreamPipelineTest, AlignedTumblingRunCopiesNoWindowRows) {
  // With chunk_rows = window_rows (what `ccsynth monitor` picks for a
  // tumbling run) every window is its chunk; a sliding run over the
  // same chunks still assembles, and copies, every window.
  DataFrame reference = TrendFrame(300, 0.0, 64);
  const std::string csv_text = ToCsv(TrendFrame(500, 5.0, 65, 250));
  StreamPipelineOptions options;
  options.window_rows = 50;
  options.chunk_rows = 50;
  options.alarm_threshold = 0.25;
  for (size_t slide : {0u, 25u}) {
    SCOPED_TRACE("slide " + std::to_string(slide));
    options.slide_rows = slide;
    const std::vector<WindowScore> serial =
        SerialLoop(reference, {csv_text}, options);
    auto pipeline = StreamPipeline::Create(reference, options);
    ASSERT_TRUE(pipeline.ok());
    std::istringstream in(csv_text);
    auto result = pipeline->Run(in);
    ASSERT_TRUE(result.ok()) << result.status;
    EXPECT_EQ(result->window_rows_copied,
              slide == 0 ? 0u : serial.size() * options.window_rows);
    ExpectHistoriesBitwiseEqual(pipeline->history(), serial);
  }
}

TEST(StreamPipelineStatsTest, EmptyStreamReportsZeroRate) {
  // rows_per_second on a degenerate (empty or near-instant) stream must
  // be 0, never inf or NaN.
  DataFrame reference = TrendFrame(100, 0.0, 32);
  auto pipeline = StreamPipeline::Create(reference, {});
  ASSERT_TRUE(pipeline.ok());
  std::istringstream in("x,y\n");  // Header only: zero rows.
  auto stats = pipeline->Run(in);
  ASSERT_TRUE(stats.ok()) << stats.status;
  EXPECT_EQ(stats->rows_ingested, 0u);
  EXPECT_EQ(stats->rows_per_second, 0.0);
  EXPECT_TRUE(std::isfinite(stats->rows_per_second));
}

TEST_F(StreamPipelineTest, HistoryContinuesAcrossRuns) {
  DataFrame reference = TrendFrame(200, 0.0, 14);
  DataFrame stream_df = TrendFrame(200, 0.0, 15);

  StreamPipelineOptions options;
  options.window_rows = 50;
  auto pipeline = StreamPipeline::Create(reference, options);
  ASSERT_TRUE(pipeline.ok());

  // Two segments split on a window boundary score like one stream.
  std::istringstream first(ToCsv(stream_df.Slice(0, 100)));
  std::istringstream second(ToCsv(stream_df.Slice(100, 200)));
  ASSERT_TRUE(pipeline->Run(first).ok());
  ASSERT_TRUE(pipeline->Run(second).ok());
  ASSERT_EQ(pipeline->history().size(), 4u);
  EXPECT_EQ(pipeline->history()[3].window_index, 3u);
}

TEST_F(StreamPipelineTest, RefreshCadenceContinuesAcrossRuns) {
  // The refresh cadence counts the whole history: a stream served in
  // segments (split on a window boundary) must refresh at the same
  // absolute window indices — and score identically — as one Run.
  DataFrame reference = TrendFrame(300, 0.0, 18);
  DataFrame stream_df = TrendFrame(300, 5.0, 19, /*drift_from=*/150);

  StreamPipelineOptions options;
  options.window_rows = 50;
  options.alarm_threshold = 0.25;
  options.refresh_every = 2;

  auto whole = StreamPipeline::Create(reference, options);
  ASSERT_TRUE(whole.ok());
  std::istringstream whole_in(ToCsv(stream_df));
  auto whole_stats = whole->Run(whole_in);
  ASSERT_TRUE(whole_stats.ok());
  ASSERT_EQ(whole_stats->refreshes, 3u);  // 6 windows / cadence 2.

  auto segmented = StreamPipeline::Create(reference, options);
  ASSERT_TRUE(segmented.ok());
  size_t segmented_refreshes = 0;
  // Segment boundary at 150 rows = 3 windows, mid-cadence after run 1's
  // refresh at window 2: run 2 must refresh at windows 4 and 6.
  for (size_t begin : {0u, 150u}) {
    std::istringstream in(ToCsv(stream_df.Slice(begin, begin + 150)));
    auto stats = segmented->Run(in);
    ASSERT_TRUE(stats.ok());
    segmented_refreshes += stats->refreshes;
  }
  EXPECT_EQ(segmented_refreshes, 3u);
  ExpectHistoriesBitwiseEqual(segmented->history(), whole->history());
}

TEST_F(StreamPipelineTest, TearsDownCleanlyOnMidStreamMalformation) {
  // Row 31 is ragged. The reader delivers the 30-row good prefix before
  // the error, so every full window of it (3 windows of 10) is scored
  // before Run surfaces the structured parse error — independent of
  // chunk sizing and thread count.
  DataFrame reference = TrendFrame(100, 0.0, 16);
  std::ostringstream bad;
  bad << "x,y\n";
  for (int i = 0; i < 30; ++i) bad << i << "," << i << "\n";
  bad << "7\n";

  for (size_t chunk_rows : {4u, 10u, 64u}) {
    for (size_t threads : {1u, 4u}) {
      StreamPipelineOptions options;
      options.window_rows = 10;
      options.alarm_threshold = 0.9;
      options.chunk_rows = chunk_rows;
      options.num_threads = threads;
      auto pipeline = StreamPipeline::Create(reference, options);
      ASSERT_TRUE(pipeline.ok());
      std::istringstream in(bad.str());
      auto stats = pipeline->Run(in);
      ASSERT_FALSE(stats.ok());
      EXPECT_EQ(stats.status.code(), StatusCode::kInvalidArgument);
      const std::string& msg = stats.status.message();
      EXPECT_NE(msg.find("line 32"), std::string::npos) << msg;
      EXPECT_NE(msg.find("data row 31"), std::string::npos) << msg;
      EXPECT_NE(msg.find("has 1 fields, expected 2"), std::string::npos)
          << msg;
      EXPECT_EQ(pipeline->history().size(), 3u)
          << "chunk_rows=" << chunk_rows << " threads=" << threads;
    }
  }
}

TEST_F(StreamPipelineTest, ErrorResultCarriesPartialStats) {
  // Pre-robustness Run returned StatusOr<PipelineStats>: a mid-stream
  // failure dropped every counter. PipelineRunResult keeps them — the
  // operator learns how far the run got alongside why it died.
  DataFrame reference = TrendFrame(100, 0.0, 16);
  std::ostringstream bad;
  bad << "x,y\n";
  for (int i = 0; i < 30; ++i) bad << i << "," << i << "\n";
  bad << "7\n";

  StreamPipelineOptions options;
  options.window_rows = 10;
  options.alarm_threshold = 0.9;
  options.chunk_rows = 10;
  auto pipeline = StreamPipeline::Create(reference, options);
  ASSERT_TRUE(pipeline.ok());
  std::istringstream in(bad.str());
  auto result = pipeline->Run(in);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
  // Three full 10-row chunks parsed before the ragged one.
  EXPECT_EQ(result->rows_ingested, 30u);
  EXPECT_EQ(result->windows_scored, 3u);
}

TEST_F(StreamPipelineTest, IngestQuarantineAbsorbsMalformedRow) {
  // Under ingest_policy=quarantine a ragged row costs exactly that row:
  // the surviving rows window and score as if the stream had never
  // contained it, so the history is bitwise identical to the clean
  // stream's — at any chunking and thread count.
  DataFrame reference = TrendFrame(100, 0.0, 18);
  DataFrame clean = TrendFrame(40, 0.0, 19);
  std::string clean_csv = ToCsv(clean);
  // Splice a ragged row after data row 25 of the same stream.
  std::string dirty_csv;
  {
    size_t pos = clean_csv.find('\n') + 1;  // Past the header.
    for (int i = 0; i < 25; ++i) pos = clean_csv.find('\n', pos) + 1;
    dirty_csv = clean_csv.substr(0, pos) + "7\n" + clean_csv.substr(pos);
  }

  StreamPipelineOptions options;
  options.window_rows = 10;
  options.alarm_threshold = 0.9;
  options.ingest_policy.mode = FailureMode::kQuarantine;

  std::vector<WindowScore> clean_history;
  {
    auto pipeline = StreamPipeline::Create(reference, options);
    ASSERT_TRUE(pipeline.ok());
    std::istringstream in(clean_csv);
    ASSERT_TRUE(pipeline->Run(in).ok());
    clean_history = pipeline->history();
    ASSERT_EQ(clean_history.size(), 4u);
  }

  for (size_t chunk_rows : {4u, 10u, 64u}) {
    for (size_t threads : {1u, 4u}) {
      options.chunk_rows = chunk_rows;
      options.num_threads = threads;
      auto pipeline = StreamPipeline::Create(reference, options);
      ASSERT_TRUE(pipeline.ok());
      std::istringstream in(dirty_csv);
      auto result = pipeline->Run(in);
      ASSERT_TRUE(result.ok()) << result.status;
      EXPECT_EQ(result->rows_ingested, 40u);
      EXPECT_EQ(result->rows_quarantined, 1u);
      ASSERT_EQ(result->quarantine.size(), 1u);
      EXPECT_EQ(result->quarantine[0].stage, "ingest");
      EXPECT_EQ(result->quarantine[0].rows_lost, 1u);
      EXPECT_EQ(result->quarantine[0].reason.code(),
                StatusCode::kInvalidArgument);
      ExpectHistoriesBitwiseEqual(pipeline->history(), clean_history);
    }
  }
}

TEST_F(StreamPipelineTest, RetryPolicyMasksTransientFaults) {
  // score_policy=retry:2 with a periodic transient fault: every retry
  // re-checks the fault point at the next hit ordinal, so each injected
  // kUnavailable is absorbed on the first retry and the committed
  // history is bitwise identical to the fault-free run.
  DataFrame reference = TrendFrame(200, 0.0, 20);
  std::string csv_text = ToCsv(TrendFrame(400, 0.0, 21));

  StreamPipelineOptions options;
  options.window_rows = 40;
  options.alarm_threshold = 0.9;
  options.chunk_rows = 23;
  auto parsed = FailurePolicy::Parse("retry:2");
  ASSERT_TRUE(parsed.ok());
  options.score_policy = *parsed;

  std::vector<WindowScore> fault_free;
  {
    auto pipeline = StreamPipeline::Create(reference, options);
    ASSERT_TRUE(pipeline.ok());
    std::istringstream in(csv_text);
    ASSERT_TRUE(pipeline->Run(in).ok());
    fault_free = pipeline->history();
    ASSERT_EQ(fault_free.size(), 10u);
  }

  common::fault::FaultSpec spec;
  spec.seed = 5;
  common::fault::FaultPoint p;
  p.point = "stream.score.window";
  p.trigger = "every";
  p.every = 4;
  spec.points.push_back(p);
  ASSERT_TRUE(common::fault::Injector::Global().Arm(spec).ok());
  auto pipeline = StreamPipeline::Create(reference, options);
  ASSERT_TRUE(pipeline.ok());
  std::istringstream in(csv_text);
  auto result = pipeline->Run(in);
  common::fault::Injector::Global().Disarm();
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_GT(result->faults_injected, 0u);
  EXPECT_EQ(result->retries, result->faults_injected);
  EXPECT_EQ(result->windows_quarantined, 0u);
  EXPECT_EQ(result->rows_quarantined, 0u);
  ExpectHistoriesBitwiseEqual(pipeline->history(), fault_free);
}

TEST_F(StreamPipelineTest, RejectsBadOptions) {
  DataFrame reference = TrendFrame(50, 0.0, 17);
  StreamPipelineOptions options;
  options.window_rows = 0;
  EXPECT_FALSE(StreamPipeline::Create(reference, options).ok());
  options.window_rows = 10;
  options.slide_rows = 20;
  EXPECT_FALSE(StreamPipeline::Create(reference, options).ok());
  options.slide_rows = 0;
  options.alarm_threshold = 3.0;
  EXPECT_FALSE(StreamPipeline::Create(reference, options).ok());
}

}  // namespace
}  // namespace ccs::stream
