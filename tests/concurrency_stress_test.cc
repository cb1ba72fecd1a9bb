// Race-provoking stress tests for the concurrency layer, written for
// the ThreadSanitizer CI job (TSAN_OPTIONS=halt_on_error=1): heavy
// multi-producer/multi-consumer BoundedQueue churn with randomized
// close/push interleavings, many ParallelFor/ParallelForEach dispatches
// racing over the shared pool, concurrent StreamMonitor history readers
// during a pipeline run, and pipeline teardown mid-stream. The
// assertions are deliberately loose (conservation, termination) — the
// point is to hand TSan as many real interleavings of the lock/unlock/
// notify edges as a few seconds can buy, not to pin exact outcomes.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/random.h"
#include "core/monitor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/checkpoint.h"
#include "stream/pipeline.h"

namespace ccs {
namespace {

using common::BoundedQueue;
using dataframe::DataFrame;

// ---------------------------------------------------------- BoundedQueue

TEST(BoundedQueueStressTest, MpmcChurnConservesElements) {
  // 4 producers x 4 consumers over a tiny queue: every element pushed
  // successfully is popped exactly once, none are invented, and both
  // sides terminate once the producers close.
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 2000;
  BoundedQueue<int> q(2);
  std::atomic<int> live_producers{kProducers};
  std::atomic<int> pushed{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        if (q.Push(p * kPerProducer + i)) pushed.fetch_add(1);
      }
      if (live_producers.fetch_sub(1) == 1) q.Close();
    });
  }

  std::vector<std::vector<int>> per_consumer(kConsumers);
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      while (std::optional<int> v = q.Pop()) per_consumer[c].push_back(*v);
    });
  }
  for (auto& t : producers) t.join();
  for (auto& t : consumers) t.join();

  std::map<int, int> seen;
  for (const auto& popped : per_consumer) {
    for (int v : popped) ++seen[v];
  }
  int total = 0;
  for (const auto& [value, count] : seen) {
    EXPECT_EQ(count, 1) << "duplicate delivery of " << value;
    total += count;
  }
  EXPECT_EQ(total, pushed.load());
  EXPECT_EQ(total, kProducers * kPerProducer);  // No close raced the pushes.
  EXPECT_LE(q.peak_depth(), 2u);
}

TEST(BoundedQueueStressTest, RandomizedCloseInterleavings) {
  // Many short-lived queues, each torn down by a closer thread at a
  // randomized point while producers push and consumers drain. Checks
  // conservation (delivered <= accepted, no duplicates) and that every
  // thread terminates whatever the interleaving.
  Rng rng(/*seed=*/2026);
  for (int round = 0; round < 200; ++round) {
    BoundedQueue<int> q(1 + round % 3);
    const int per_producer = 1 + static_cast<int>(rng.UniformInt(0, 40));
    const int spin = static_cast<int>(rng.UniformInt(0, 500));

    std::atomic<int> accepted{0};
    std::thread producer_a([&] {
      for (int i = 0; i < per_producer; ++i) {
        if (!q.Push(i)) return;  // Closed under us: stop pushing.
        accepted.fetch_add(1);
      }
    });
    std::thread producer_b([&] {
      for (int i = 0; i < per_producer; ++i) {
        if (!q.Push(per_producer + i)) return;
        accepted.fetch_add(1);
      }
    });
    std::thread closer([&] {
      for (volatile int s = 0; s < spin; ++s) {
      }
      q.Close();
    });

    std::map<int, int> seen;
    std::thread consumer([&] {
      while (std::optional<int> v = q.Pop()) ++seen[*v];
    });

    producer_a.join();
    producer_b.join();
    closer.join();
    consumer.join();

    int delivered = 0;
    for (const auto& [value, count] : seen) {
      EXPECT_EQ(count, 1) << "duplicate delivery of " << value;
      delivered += count;
    }
    // Pop drains whatever was buffered at close; an element accepted by
    // Push is either delivered or was still buffered when the consumer
    // saw end-of-stream — never duplicated, never invented.
    EXPECT_LE(delivered, accepted.load());
    EXPECT_TRUE(q.closed());
  }
}

// ------------------------------------------------------------- parallel

TEST(ParallelStressTest, ConcurrentParallelForEachPools) {
  // Several outer threads dispatch ParallelForEach over the shared pool
  // at once: every index of every dispatch must run exactly once.
  constexpr int kOuter = 6;
  constexpr size_t kIndices = 4096;
  std::vector<std::thread> outers;
  std::vector<std::vector<std::atomic<int>>> hits(kOuter);
  for (auto& h : hits) {
    h = std::vector<std::atomic<int>>(kIndices);
    for (auto& cell : h) cell.store(0);
  }
  for (int o = 0; o < kOuter; ++o) {
    outers.emplace_back([&, o] {
      common::ParallelForEach(
          kIndices, [&, o](size_t i) { hits[o][i].fetch_add(1); },
          /*num_threads=*/4);
    });
  }
  for (auto& t : outers) t.join();
  for (int o = 0; o < kOuter; ++o) {
    for (size_t i = 0; i < kIndices; ++i) {
      ASSERT_EQ(hits[o][i].load(), 1) << "dispatch " << o << " index " << i;
    }
  }
}

TEST(ParallelStressTest, ConcurrentParallelForChunks) {
  // Same for the chunked entry point, with small chunks to force many
  // claim/complete handshakes through the pool.
  constexpr int kOuter = 4;
  constexpr size_t kIndices = 1 << 15;
  std::vector<std::atomic<int>> hits(kIndices);
  for (auto& cell : hits) cell.store(0);
  std::vector<std::thread> outers;
  for (int o = 0; o < kOuter; ++o) {
    outers.emplace_back([&] {
      common::ParallelFor(
          kIndices,
          [&](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
          },
          common::ParallelOptions{/*num_threads=*/4, /*min_chunk=*/64});
    });
  }
  for (auto& t : outers) t.join();
  for (size_t i = 0; i < kIndices; ++i) {
    ASSERT_EQ(hits[i].load(), kOuter) << "index " << i;
  }
}

// ------------------------------------------------------------- pipeline

// y = x + noise CSV with `n` rows; breaks the trend from row
// `drift_from` when offset != 0.
std::string TrendCsv(size_t n, uint64_t seed, double offset = 0.0,
                     size_t drift_from = 0) {
  Rng rng(seed);
  std::ostringstream out;
  out << "x,y\n";
  for (size_t i = 0; i < n; ++i) {
    double x = rng.Uniform(-5.0, 5.0);
    double y = x + (i >= drift_from ? offset : 0.0) + rng.Gaussian(0.0, 0.1);
    out << x << ',' << y << '\n';
  }
  return out.str();
}

DataFrame ReferenceFrame(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Uniform(-5.0, 5.0);
    y[i] = x[i] + rng.Gaussian(0.0, 0.1);
  }
  DataFrame df;
  CCS_CHECK(df.AddNumericColumn("x", std::move(x)).ok());
  CCS_CHECK(df.AddNumericColumn("y", std::move(y)).ok());
  return df;
}

TEST(PipelineStressTest, ConcurrentHistoryReadersDuringRun) {
  // Reader threads poll the monitor's mutex-guarded history while the
  // pipeline commits scores and refreshes the profile — the serve-
  // daemon access pattern the StreamMonitor lock exists for.
  DataFrame reference = ReferenceFrame(400, /*seed=*/11);
  stream::StreamPipelineOptions options;
  options.window_rows = 32;
  options.chunk_rows = 64;
  options.queue_capacity = 2;
  options.refresh_every = 4;
  options.num_threads = 4;
  auto pipeline = stream::StreamPipeline::Create(reference, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  std::atomic<bool> done{false};
  std::atomic<size_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      size_t last = 0;
      while (!done.load()) {
        std::vector<core::WindowScore> snapshot = pipeline->history();
        ASSERT_GE(snapshot.size(), last);  // History only grows.
        for (size_t i = 0; i < snapshot.size(); ++i) {
          ASSERT_EQ(snapshot[i].window_index, i);  // Arrival order.
        }
        last = snapshot.size();
        reads.fetch_add(1);
      }
    });
  }

  std::istringstream in(TrendCsv(4000, /*seed=*/12));
  auto stats = pipeline->Run(in);
  done.store(true);
  for (auto& t : readers) t.join();
  ASSERT_TRUE(stats.ok()) << stats.status.ToString();
  EXPECT_EQ(stats->windows_scored, 4000u / 32u);
  EXPECT_GT(reads.load(), 0u);
}

TEST(PipelineStressTest, TeardownMidStreamOnIngestError) {
  // A malformed cell mid-stream fails ingest while windowing and
  // scoring are busy: the error must close the chunk queue, unblock
  // both stages, and surface as Run's status — with no thread left behind for
  // TSan to flag at process exit.
  DataFrame reference = ReferenceFrame(200, /*seed=*/21);
  for (int round = 0; round < 10; ++round) {
    stream::StreamPipelineOptions options;
    options.window_rows = 16;
    options.chunk_rows = 8;
    options.queue_capacity = 1;  // Maximize backpressure blocking.
    options.num_threads = 2;
    auto pipeline = stream::StreamPipeline::Create(reference, options);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

    std::string csv = TrendCsv(600, /*seed=*/static_cast<uint64_t>(round));
    // Corrupt a cell at a round-dependent depth so the failure lands in
    // a different backpressure state each time.
    size_t cut = csv.find('\n', csv.size() / 2 + round * 17);
    ASSERT_NE(cut, std::string::npos);
    csv = csv.substr(0, cut) + "\nnot-a-number,boom\n" + csv.substr(cut + 1);

    std::istringstream in(csv);
    auto stats = pipeline->Run(in);
    EXPECT_FALSE(stats.ok());  // The parse error must reach the caller.
  }
}

TEST(PipelineStressTest, TinyQueuesManyThreadsStayDeterministic) {
  // Maximum stage contention (capacity-1 queues, single-row chunks)
  // must not change a single committed bit relative to a roomy run.
  DataFrame reference = ReferenceFrame(300, /*seed=*/31);
  std::string csv = TrendCsv(900, /*seed=*/32, /*offset=*/4.0,
                             /*drift_from=*/450);

  auto run = [&](size_t queue_capacity, size_t chunk_rows) {
    stream::StreamPipelineOptions options;
    options.window_rows = 30;
    options.chunk_rows = chunk_rows;
    options.queue_capacity = queue_capacity;
    options.refresh_every = 5;
    options.num_threads = 4;
    auto pipeline = stream::StreamPipeline::Create(reference, options);
    CCS_CHECK(pipeline.ok()) << pipeline.status().ToString();
    std::istringstream in(csv);
    auto stats = pipeline->Run(in);
    CCS_CHECK(stats.ok()) << stats.status.ToString();
    return pipeline->history();
  };

  std::vector<core::WindowScore> contended = run(1, 1);
  std::vector<core::WindowScore> roomy = run(8, 128);
  ASSERT_EQ(contended.size(), roomy.size());
  for (size_t i = 0; i < contended.size(); ++i) {
    EXPECT_EQ(contended[i].window_index, roomy[i].window_index);
    EXPECT_EQ(contended[i].drift, roomy[i].drift) << "window " << i;
    EXPECT_EQ(contended[i].alarm, roomy[i].alarm);
  }
}

TEST(PipelineStressTest, StopWhileRetrying) {
  // The graceful-stop flag is raised from another thread while the
  // scoring stage is inside supervised retry/quarantine cycles driven
  // by an armed probability fault — the shutdown edge has to compose
  // with the supervisor's retry loop, not just with happy-path scoring.
  // Loose assertions: every round terminates and the counters cohere.
  DataFrame reference = ReferenceFrame(200, /*seed=*/41);
  std::string csv = TrendCsv(3000, /*seed=*/42);
  for (int round = 0; round < 6; ++round) {
    common::fault::FaultSpec spec;
    spec.seed = static_cast<uint64_t>(round);
    common::fault::FaultPoint p;
    p.point = "stream.score.window";
    p.trigger = "probability";
    p.probability = 0.4;
    spec.points.push_back(p);
    ASSERT_TRUE(common::fault::Injector::Global().Arm(spec).ok());

    stream::StreamPipelineOptions options;
    options.window_rows = 20;
    options.chunk_rows = 16;
    options.queue_capacity = 1;
    options.num_threads = 2;
    auto policy = stream::FailurePolicy::Parse("retry:2+quarantine");
    ASSERT_TRUE(policy.ok());
    options.score_policy = *policy;
    std::atomic<bool> stop{false};
    options.stop = &stop;
    auto pipeline = stream::StreamPipeline::Create(reference, options);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

    std::thread stopper([&, round] {
      for (volatile int s = 0; s < 3000 * (round + 1); ++s) {
      }
      stop.store(true);
    });
    std::istringstream in(csv);
    auto result = pipeline->Run(in);
    stopper.join();
    common::fault::Injector::Global().Disarm();
    ASSERT_TRUE(result.ok()) << result.status.ToString();
    // Quarantined + committed windows account for everything consumed.
    EXPECT_EQ(result->windows_scored, pipeline->history().size());
    EXPECT_GE(result->retries, result->windows_quarantined);
  }
}

TEST(PipelineStressTest, CheckpointEveryWindowWithConcurrentReaders) {
  // Checkpoint at every consumed window while reader threads poll the
  // checkpoint file and the score history: the atomic tmp+rename write
  // must never expose a torn file (every read parses or is NotFound),
  // and progress in the file only moves forward.
  DataFrame reference = ReferenceFrame(200, /*seed=*/51);
  const std::string path =
      ::testing::TempDir() + "/ccs_stress_checkpoint.ck";
  std::remove(path.c_str());

  stream::StreamPipelineOptions options;
  options.window_rows = 25;
  options.chunk_rows = 10;
  options.queue_capacity = 2;
  options.num_threads = 2;
  options.refresh_every = 3;
  options.checkpoint_path = path;
  options.checkpoint_every = 1;
  auto pipeline = stream::StreamPipeline::Create(reference, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      size_t last_windows = 0;
      while (!done.load()) {
        auto data = stream::ReadCheckpointFile(path);
        if (!data.ok()) {
          ASSERT_EQ(data.status().code(), StatusCode::kNotFound)
              << data.status().ToString();
          continue;
        }
        ASSERT_GE(data->windows_committed, last_windows);
        last_windows = data->windows_committed;
        ASSERT_EQ(data->rows_consumed, data->windows_consumed * 25);
      }
    });
  }

  std::istringstream in(TrendCsv(2500, /*seed=*/52));
  auto result = pipeline->Run(in);
  done.store(true);
  for (auto& t : readers) t.join();
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_EQ(result->windows_scored, 100u);
  // The cadence is checked at batch-commit boundaries, so the write
  // count tracks batches (nondeterministic), not windows.
  EXPECT_GT(result->checkpoints_written, 0u);
  EXPECT_LE(result->checkpoints_written, 100u);
  auto final_data = stream::ReadCheckpointFile(path);
  ASSERT_TRUE(final_data.ok()) << final_data.status();
  EXPECT_EQ(final_data->windows_committed, 100u);
  std::remove(path.c_str());
}

// -------------------------------------------------------- observability

TEST(ObsStressTest, RegistryCountersAndHistogramsUnderChurn) {
  // Writer threads hammer one striped counter and one histogram looked
  // up through the global registry (exercising the interning path from
  // every thread) while a reader loops value()/Snapshot()/ToJson().
  // Exact totals must survive: striping shards contention, not counts.
  constexpr int kWriters = 6;
  constexpr int kPerWriter = 20000;
  std::atomic<bool> done{false};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      obs::Counter* c = obs::Registry::Global().GetCounter("stress.counter");
      obs::Histogram* h =
          obs::Registry::Global().GetHistogram("stress.hist", {1.0, 10.0, 100.0});
      for (int i = 0; i < kPerWriter; ++i) {
        c->Increment();
        h->Observe(static_cast<double>(i % 128));
      }
    });
  }
  std::thread reader([&] {
    obs::Counter* c = obs::Registry::Global().GetCounter("stress.counter");
    obs::Histogram* h = obs::Registry::Global().GetHistogram("stress.hist");
    uint64_t last = 0;
    while (!done.load()) {
      uint64_t now = c->value();
      ASSERT_GE(now, last);  // Counters only grow while writers run.
      last = now;
      obs::HistogramSnapshot snap = h->Snapshot();
      ASSERT_LE(snap.total_count, static_cast<uint64_t>(kWriters) * kPerWriter);
      std::string json = obs::Registry::Global().ToJson();
      ASSERT_FALSE(json.empty());
    }
  });
  for (auto& t : writers) t.join();
  done.store(true);
  reader.join();

  obs::Registry& reg = obs::Registry::Global();
  EXPECT_EQ(reg.GetCounter("stress.counter")->value(),
            static_cast<uint64_t>(kWriters) * kPerWriter);
  obs::HistogramSnapshot snap = reg.GetHistogram("stress.hist")->Snapshot();
  EXPECT_EQ(snap.total_count, static_cast<uint64_t>(kWriters) * kPerWriter);
}

TEST(ObsStressTest, RegistryInterningRaces) {
  // Many threads intern overlapping metric names at once; every thread
  // must get the same pointer for the same name, whichever thread won
  // the insertion race.
  constexpr int kThreads = 8;
  constexpr int kNames = 16;
  std::vector<std::vector<obs::Counter*>> seen(kThreads,
                                               std::vector<obs::Counter*>(kNames));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int n = 0; n < kNames; ++n) {
        seen[t][n] = obs::Registry::Global().GetCounter(
            "stress.intern." + std::to_string(n));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int n = 0; n < kNames; ++n) {
    for (int t = 1; t < kThreads; ++t) {
      ASSERT_EQ(seen[t][n], seen[0][n]) << "name " << n << " thread " << t;
    }
  }
}

TEST(ObsStressTest, CollectWhileRecordingSpanChurn) {
  // N threads open/close spans into small per-thread rings while the
  // session owner repeatedly calls Collect()/dropped()/
  // ToChromeTraceJson() — the live-inspection pattern the per-ring
  // mutexes exist for. Loose assertions: well-formed names, bounded
  // collection size, and recorded + dropped covering everything opened.
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 5000;
  obs::ObsSession session(/*ring_capacity=*/64);
  std::atomic<bool> go{false};
  std::atomic<int> live{kThreads};

  std::vector<std::thread> spanners;
  for (int t = 0; t < kThreads; ++t) {
    spanners.emplace_back([&, t] {
      while (!go.load()) {
      }
      for (int i = 0; i < kSpansPerThread; ++i) {
        std::string name = "churn" + std::to_string(t);
        obs::ObsSpan span(name.c_str(), "stress");
      }
      live.fetch_sub(1);
    });
  }
  go.store(true);
  while (live.load() > 0) {
    std::vector<obs::TraceEvent> events = session.Collect();
    ASSERT_LE(events.size(), static_cast<size_t>(kThreads) * 64 + 64);
    for (const obs::TraceEvent& ev : events) {
      ASSERT_EQ(std::string(ev.name).rfind("churn", 0), 0u);
    }
    std::string json = session.ToChromeTraceJson();
    ASSERT_NE(json.find("traceEvents"), std::string::npos);
    (void)session.dropped();
  }
  for (auto& t : spanners) t.join();

  std::vector<obs::TraceEvent> final_events = session.Collect();
  EXPECT_EQ(final_events.size() + session.dropped(),
            static_cast<size_t>(kThreads) * kSpansPerThread);
}

}  // namespace
}  // namespace ccs
