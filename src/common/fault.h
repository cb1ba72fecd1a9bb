// Deterministic, seeded fault injection.
//
// Production code marks recoverable operations with
// CCS_FAULT_POINT("stage.op"). Disarmed (the default), a fault point is
// one relaxed atomic load — cheap enough to leave compiled into release
// binaries. Armed with a FaultSpec, the point consults its trigger on
// every hit and either returns an injected error Status or terminates
// the process (simulating kill -9, for checkpoint-resume drills).
//
// Determinism contract: every decision is a pure function of
// (spec seed, point name, hit ordinal). Hit ordinals are per-point
// counters, and each point name lives in exactly one pipeline stage
// loop, so the injection sites of a run are byte-replayable — the same
// (seed, spec) injects at the same points at 1 and 4 threads, exactly
// like scenario rendering (src/scenario/scenario.h). Probability
// triggers draw from a splitmix64 stream keyed on the point, never from
// a shared RNG, so arming one point cannot perturb another's draws.
//
// Fault specs are JSON (see docs/robustness.md):
//
//   {"seed": 7, "points": [
//     {"point": "stream.score.window", "trigger": "once", "at": 5},
//     {"point": "stream.ingest.read", "trigger": "every", "every": 100},
//     {"point": "stream.refresh.synthesize", "trigger": "probability",
//      "probability": 0.05, "code": "internal"},
//     {"point": "stream.score.window", "trigger": "once", "at": 30,
//      "action": "crash"}]}
//
// Triggers: "once" fires on hit ordinal `at` (1-based); "every" fires
// on every `every`-th hit; "probability" fires each hit with chance
// `probability`. Actions: "error" (default) returns a Status of `code`
// (default "unavailable", the one code the supervisor retries);
// "crash" calls _Exit(137) — no destructors, no flushing, the honest
// moral equivalent of SIGKILL.

#ifndef CCS_COMMON_FAULT_H_
#define CCS_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/mutex.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"

namespace ccs::common::fault {

/// One armed injection site within a FaultSpec.
struct FaultPoint {
  /// The CCS_FAULT_POINT name this entry arms.
  std::string point;
  /// "once" | "every" | "probability".
  std::string trigger = "once";
  /// 1-based hit ordinal for "once".
  uint64_t at = 1;
  /// Period for "every": fires when hit % every == 0.
  uint64_t every = 0;
  /// Per-hit chance for "probability", in [0, 1].
  double probability = 0.0;
  /// "error" | "crash".
  std::string action = "error";
  /// Status code name for "error": "unavailable" (default, retryable),
  /// "internal", "io-error", "invalid-argument", "failed-precondition".
  std::string code = "unavailable";
  /// Optional message override; "" uses "fault injected at <point>".
  std::string message;
};

/// A full fault specification: the seed feeding every probability
/// trigger's splitmix64 stream, plus the armed points.
struct FaultSpec {
  uint64_t seed = 0;
  std::vector<FaultPoint> points;

  bool empty() const { return points.empty(); }
};

/// Parses the JSON fault-spec form (the common/json.h grammar). Unknown
/// keys, unknown triggers, actions, or status codes are rejected — a
/// typo must not silently disarm an injection.
StatusOr<FaultSpec> ParseFaultSpecJson(const std::string& text);

/// Serializes a spec to the JSON form ParseFaultSpecJson accepts
/// (round-trips exactly; defaults are omitted).
std::string FaultSpecToJson(const FaultSpec& spec);

/// Reads one fault-point object — an element of a fault spec's
/// "points" or a scenario spec's "faults" — at the reader's cursor.
/// Unknown keys are rejected; trigger, action and code names are not
/// validated here (ParseFaultSpecJson and Injector::Arm do that).
StatusOr<FaultPoint> ReadFaultPointJson(JsonReader* reader);

/// Appends the JSON object form of `point` that ReadFaultPointJson
/// reads, omitting defaults.
void AppendFaultPointJson(const FaultPoint& point, std::string* out);

/// The process-wide fault registry behind CCS_FAULT_POINT.
///
/// Thread model: Check may be called from any thread (each point's hit
/// counter advances under the registry mutex). Arm/Disarm must only be
/// called while no pipeline is running — arming mid-run would make hit
/// ordinals depend on where the stages happened to be.
class Injector {
 public:
  /// The singleton every CCS_FAULT_POINT consults.
  static Injector& Global();

  /// Arms `spec`, replacing any previous one and resetting all hit and
  /// injection counters. InvalidArgument on an unknown trigger/action/
  /// code or a malformed trigger parameter.
  Status Arm(FaultSpec spec);

  /// Disarms every point; Check returns OK again at one atomic load.
  void Disarm();

  /// True while a spec is armed.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// The hook behind CCS_FAULT_POINT: records a hit at `point` and
  /// returns the injected error when an armed trigger fires (or never
  /// returns, for "crash"). OK when disarmed or not triggered.
  Status Check(const char* point);

  /// Total faults injected since the last Arm (error and crash actions;
  /// a crash is never observed, of course).
  uint64_t injected() const;

  /// Hits recorded at `point` since the last Arm; 0 when unarmed or the
  /// point is not in the spec (unarmed points are not counted).
  uint64_t hits(const std::string& point) const;

 private:
  struct PointState {
    FaultPoint spec;
    /// splitmix64 stream key for probability draws, derived from
    /// (spec seed, point index) at Arm time.
    uint64_t stream = 0;
    uint64_t hits = 0;
    uint64_t injected = 0;
  };

  Injector() = default;

  std::atomic<bool> armed_{false};
  mutable Mutex mu_;
  std::vector<PointState> points_ CCS_GUARDED_BY(mu_);
  uint64_t injected_total_ CCS_GUARDED_BY(mu_) = 0;
};

}  // namespace ccs::common::fault

/// Marks a recoverable operation. No-op (one relaxed load) while the
/// registry is disarmed; returns the injected Status from the enclosing
/// function when an armed trigger fires. Use inside functions returning
/// Status or StatusOr<T>. Names must be unique string literals confined
/// to src/ (tools/ccs_lint.py, rule `fault-point`).
#define CCS_FAULT_POINT(name)                                       \
  do {                                                              \
    if (::ccs::common::fault::Injector::Global().armed()) {         \
      ::ccs::Status _ccs_fault =                                    \
          ::ccs::common::fault::Injector::Global().Check(name);     \
      if (!_ccs_fault.ok()) return _ccs_fault;                      \
    }                                                               \
  } while (false)

#endif  // CCS_COMMON_FAULT_H_
