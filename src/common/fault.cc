#include "common/fault.h"

#include <cstdlib>
#include <utility>

#include "common/string_util.h"

namespace ccs::common::fault {

namespace {

// splitmix64 finalizer — the same mixer scenario seeding uses, duplicated
// here because common/ sits below scenario/ in the layering. Fixed
// forever: armed golden traces depend on it.
uint64_t Mix64(uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Uniform double in [0, 1) from the top 53 bits of a mixed draw.
double UnitDraw(uint64_t stream, uint64_t hit) {
  return static_cast<double>(Mix64(stream + hit) >> 11) * 0x1.0p-53;
}

StatusOr<StatusCode> CodeFromName(const std::string& name) {
  if (name == "unavailable") return StatusCode::kUnavailable;
  if (name == "internal") return StatusCode::kInternal;
  if (name == "io-error") return StatusCode::kIoError;
  if (name == "invalid-argument") return StatusCode::kInvalidArgument;
  if (name == "failed-precondition") return StatusCode::kFailedPrecondition;
  return Status::InvalidArgument("fault spec: unknown status code '" + name +
                                 "'");
}

Status ValidatePoint(const FaultPoint& p) {
  if (p.point.empty()) {
    return Status::InvalidArgument("fault spec: point name must be non-empty");
  }
  if (p.trigger == "once") {
    if (p.at == 0) {
      return Status::InvalidArgument(
          "fault spec: 'once' trigger needs at >= 1 (hit ordinals are "
          "1-based)");
    }
  } else if (p.trigger == "every") {
    if (p.every == 0) {
      return Status::InvalidArgument(
          "fault spec: 'every' trigger needs every >= 1");
    }
  } else if (p.trigger == "probability") {
    if (!(p.probability >= 0.0 && p.probability <= 1.0)) {
      return Status::InvalidArgument(
          "fault spec: probability must be in [0, 1]");
    }
  } else {
    return Status::InvalidArgument("fault spec: unknown trigger '" +
                                   p.trigger + "'");
  }
  if (p.action != "error" && p.action != "crash") {
    return Status::InvalidArgument("fault spec: unknown action '" + p.action +
                                   "'");
  }
  return CodeFromName(p.code).status();
}

}  // namespace

StatusOr<FaultPoint> ReadFaultPointJson(JsonReader* reader) {
  FaultPoint p;
  CCS_RETURN_IF_ERROR(reader->Object([&](const std::string& key) {
    if (key == "point") return Store(reader->String(), &p.point);
    if (key == "trigger") return Store(reader->String(), &p.trigger);
    if (key == "at") return Store(reader->Uint(), &p.at);
    if (key == "every") return Store(reader->Uint(), &p.every);
    if (key == "probability") return Store(reader->Double(), &p.probability);
    if (key == "action") return Store(reader->String(), &p.action);
    if (key == "code") return Store(reader->String(), &p.code);
    if (key == "message") return Store(reader->String(), &p.message);
    return reader->Error("unknown fault point key '" + key + "'");
  }));
  return p;
}

void AppendFaultPointJson(const FaultPoint& p, std::string* out) {
  *out += "{\"point\": \"" + EscapeJson(p.point) + "\", \"trigger\": \"" +
          EscapeJson(p.trigger) + "\"";
  if (p.trigger == "once" && p.at != 1) {
    *out += ", \"at\": " + std::to_string(p.at);
  }
  if (p.trigger == "every") *out += ", \"every\": " + std::to_string(p.every);
  if (p.trigger == "probability") {
    *out += ", \"probability\": " + FormatDouble(p.probability);
  }
  if (p.action != "error") {
    *out += ", \"action\": \"" + EscapeJson(p.action) + "\"";
  }
  if (p.code != "unavailable") {
    *out += ", \"code\": \"" + EscapeJson(p.code) + "\"";
  }
  if (!p.message.empty()) {
    *out += ", \"message\": \"" + EscapeJson(p.message) + "\"";
  }
  *out += "}";
}

StatusOr<FaultSpec> ParseFaultSpecJson(const std::string& text) {
  JsonReader reader(text, "fault spec JSON");
  FaultSpec spec;
  CCS_RETURN_IF_ERROR(reader.Object([&](const std::string& key) {
    if (key == "seed") return Store(reader.Uint(), &spec.seed);
    if (key == "points") {
      return reader.Array([&] {
        return Store(ReadFaultPointJson(&reader), &spec.points.emplace_back());
      });
    }
    return reader.Error("unknown key '" + key + "'");
  }));
  CCS_RETURN_IF_ERROR(reader.End());
  for (const FaultPoint& p : spec.points) {
    CCS_RETURN_IF_ERROR(ValidatePoint(p));
  }
  return spec;
}

std::string FaultSpecToJson(const FaultSpec& spec) {
  std::string out = "{\"seed\": " + std::to_string(spec.seed) +
                    ", \"points\": [";
  for (size_t i = 0; i < spec.points.size(); ++i) {
    out += i == 0 ? "\n  " : ",\n  ";
    AppendFaultPointJson(spec.points[i], &out);
  }
  out += spec.points.empty() ? "]}" : "\n]}";
  return out;
}

Injector& Injector::Global() {
  static Injector* injector = new Injector();
  return *injector;
}

Status Injector::Arm(FaultSpec spec) {
  for (const FaultPoint& p : spec.points) {
    CCS_RETURN_IF_ERROR(ValidatePoint(p));
  }
  MutexLock lock(&mu_);
  points_.clear();
  points_.reserve(spec.points.size());
  for (size_t i = 0; i < spec.points.size(); ++i) {
    PointState state;
    state.spec = spec.points[i];
    // One independent splitmix64 stream per armed entry, keyed on (seed,
    // entry index): arming a new point never perturbs another's draws.
    state.stream = Mix64(spec.seed ^ Mix64(i + 1));
    points_.push_back(std::move(state));
  }
  injected_total_ = 0;
  armed_.store(!points_.empty(), std::memory_order_relaxed);
  return Status::OK();
}

void Injector::Disarm() {
  MutexLock lock(&mu_);
  armed_.store(false, std::memory_order_relaxed);
  points_.clear();
  injected_total_ = 0;
}

Status Injector::Check(const char* point) {
  if (!armed()) return Status::OK();
  MutexLock lock(&mu_);
  // Every entry armed on this point shares one hit ordinal (so a spec
  // can compose, say, a transient error at hit 5 with a crash at hit
  // 30); the first entry whose trigger fires wins.
  uint64_t hit = 0;
  for (PointState& state : points_) {
    if (state.spec.point != point) continue;
    if (hit == 0) hit = state.hits + 1;
    state.hits = hit;
    bool fire = false;
    if (state.spec.trigger == "once") {
      fire = hit == state.spec.at;
    } else if (state.spec.trigger == "every") {
      fire = hit % state.spec.every == 0;
    } else {  // probability
      fire = UnitDraw(state.stream, hit) < state.spec.probability;
    }
    if (!fire) continue;
    ++state.injected;
    ++injected_total_;
    if (state.spec.action == "crash") {
      // The kill -9 drill: no destructors, no stream flushing, no atexit
      // (so sanitizer leak checks do not fire on the intentional corpse).
      // 137 = 128 + SIGKILL, what a shell would report for the real thing.
      std::_Exit(137);
    }
    std::string message =
        state.spec.message.empty()
            ? "fault injected at " + state.spec.point + " (hit " +
                  std::to_string(hit) + ")"
            : state.spec.message;
    return Status(CodeFromName(state.spec.code).value(), std::move(message));
  }
  return Status::OK();
}

uint64_t Injector::injected() const {
  MutexLock lock(&mu_);
  return injected_total_;
}

uint64_t Injector::hits(const std::string& point) const {
  MutexLock lock(&mu_);
  // Entries armed on the same point share one ordinal; any of them
  // carries the point's hit count.
  for (const PointState& state : points_) {
    if (state.spec.point == point) return state.hits;
  }
  return 0;
}

}  // namespace ccs::common::fault
