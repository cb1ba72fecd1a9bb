// Byte-level fuzz of the parsers that read persisted artifacts back:
// ParseFaultSpecJson (fault specs), ParseSpecJson (scenario specs),
// Deserialize (learned profiles) and ParseCheckpoint (stream
// checkpoints). All four read untrusted bytes.
//
// Each codec starts from well-formed seed inputs: the fault spec from
// docs/robustness.md, SpecToJson of every catalogue scenario, a
// Serialize'd profile with ±inf and NaN statistics (one NaN with a
// payload) over awkward names (padding, a newline, a quote, empty), and
// a SerializeCheckpoint output with a refreshed profile over the same
// attribute names. The fuzzer feeds the parser every truncation of each
// seed, plus, at every offset, a single-byte flip, a single-byte
// insertion and the insertion of a few multi-byte tokens (huge
// exponents, fractions, overflowing integers, unsupported escapes). A
// parser must return OK or an error Status for every input: a crash, a
// CHECK failure or an exception fails the test. When a mutated input
// does parse, it must re-serialize to a fixed point: serialize -> parse
// -> serialize gives the same bytes. ParseCheckpoint is fuzzed twice:
// raw, where its checksum must refuse every input but the seed, and
// re-sealed, where each mutated input gets a fresh checksum so the body
// parser behind it is fuzzed too.
//
// Deterministic by default (CCS_FUZZ_SEED=1). CCS_FUZZ_DRAWS (default 2)
// sets how many flips and insertions each offset gets; a failing input
// prints its codec, seed and mutation, which replay with the same
// CCS_FUZZ_SEED.

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/constraint.h"
#include "core/serialize.h"
#include "gtest/gtest.h"
#include "linalg/matrix.h"
#include "scenario/scenario.h"
#include "stream/checkpoint.h"

namespace ccs {
namespace {

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return static_cast<uint64_t>(std::strtoull(value, nullptr, 10));
}

// One codec under fuzz: parse `text`, and on success serialize the
// result back to its canonical form.
using Canonicalize = std::function<StatusOr<std::string>(const std::string&)>;

template <typename Parse, typename Serialize>
Canonicalize MakeCodec(Parse parse, Serialize serialize) {
  return [parse, serialize](const std::string& text) -> StatusOr<std::string> {
    auto parsed = parse(text);
    if (!parsed.ok()) return parsed.status();
    return serialize(*parsed);
  };
}

// Bytes that steer a mutation into the grammar's interesting corners:
// structure, quotes and escapes, number syntax, line breaks and the
// separators the line codecs split on.
constexpr char kInteresting[] = "{}[]\":,\\/ubnrt0123456789-+.eE \n\r\t=";

// Multi-byte tokens no single-byte mutation reaches: huge exponents,
// fractions and signs in integer fields, integer overflow, non-finite
// spellings, and escapes outside the supported set.
constexpr const char* kTokens[] = {
    "1e30", "e308", ".5", "-1", "18446744073709551616", "nan", "-inf",
    "\\u00e9", "\\q"};

char DrawByte(Rng& rng) {
  if (rng.Bernoulli(0.5)) {
    return kInteresting[rng.UniformInt(0, sizeof(kInteresting) - 2)];
  }
  return static_cast<char>(rng.UniformInt(0, 255));
}

// Feeds `input` to `codec`; on success checks the fixed point and, when
// `only_accept` is set, that `input` is that text. Returns false (after
// recording a gtest failure) when a check fails.
bool CheckInput(const char* codec_name, const Canonicalize& codec,
                const std::string& input, const std::string& mutation,
                const std::string* only_accept) {
  auto once = codec(input);
  if (!once.ok()) return true;  // A structured error is a pass.
  if (only_accept != nullptr && input != *only_accept) {
    ADD_FAILURE() << codec_name << " (" << mutation
                  << "): accepted a mutated input\ninput: \""
                  << common::EscapeJson(input) << "\"";
    return false;
  }
  auto twice = codec(*once);
  if (!twice.ok()) {
    ADD_FAILURE() << codec_name << " (" << mutation
                  << "): parsed input re-serialized to text it rejects: "
                  << twice.status() << "\ninput: \""
                  << common::EscapeJson(input) << "\"\nserialized: \""
                  << common::EscapeJson(*once) << "\"";
    return false;
  }
  if (*twice != *once) {
    ADD_FAILURE() << codec_name << " (" << mutation
                  << "): serialize -> parse -> serialize is not a fixed "
                     "point\ninput: \""
                  << common::EscapeJson(input) << "\"\nfirst: \""
                  << common::EscapeJson(*once) << "\"\nsecond: \""
                  << common::EscapeJson(*twice) << "\"";
    return false;
  }
  return true;
}

// Every truncation, every kTokens insertion, then `draws` flips and
// byte insertions at every offset. With `only_seed`, every input but
// the seed itself must be refused. Stops at the first failing input so
// one bug does not flood the log.
void FuzzSeed(const char* codec_name, const Canonicalize& codec,
              const std::string& seed_text, uint64_t seed, uint64_t draws,
              bool only_seed = false) {
  auto ok = codec(seed_text);
  ASSERT_TRUE(ok.ok()) << codec_name << ": seed input does not parse: "
                       << ok.status();
  const std::string* only_accept = only_seed ? &seed_text : nullptr;
  auto check = [&](const std::string& input, const std::string& mutation) {
    return CheckInput(codec_name, codec, input, mutation, only_accept);
  };
  ASSERT_TRUE(check(seed_text, "unmutated"));
  Rng rng(seed);
  for (size_t cut = 0; cut < seed_text.size(); ++cut) {
    if (!check(seed_text.substr(0, cut),
               "truncated at " + std::to_string(cut))) {
      return;
    }
  }
  for (size_t at = 0; at < seed_text.size(); ++at) {
    for (const char* token : kTokens) {
      std::string inserted = seed_text;
      inserted.insert(at, token);
      if (!check(inserted,
                 std::string(token) + " inserted at " + std::to_string(at))) {
        return;
      }
    }
    for (uint64_t d = 0; d < draws; ++d) {
      std::string flipped = seed_text;
      const char byte = DrawByte(rng);
      flipped[at] = byte;
      std::string inserted = seed_text;
      const char extra = DrawByte(rng);
      inserted.insert(inserted.begin() + static_cast<ptrdiff_t>(at), extra);
      const std::string where = " at " + std::to_string(at) + ", fuzz seed " +
                                std::to_string(seed);
      if (!check(flipped, "byte " +
                              std::to_string(static_cast<uint8_t>(byte)) +
                              " written" + where) ||
          !check(inserted, "byte " +
                               std::to_string(static_cast<uint8_t>(extra)) +
                               " inserted" + where)) {
        return;
      }
    }
  }
}

class CodecFuzzTest : public ::testing::Test {
 protected:
  uint64_t seed_ = EnvOr("CCS_FUZZ_SEED", 1);
  uint64_t draws_ = EnvOr("CCS_FUZZ_DRAWS", 2);
};

TEST_F(CodecFuzzTest, FaultSpecJson) {
  // The example spec from docs/robustness.md, plus a message that needs
  // escaping.
  const std::string docs_spec =
      "{\"seed\": 7, \"points\": [\n"
      "  {\"point\": \"stream.score.window\", \"trigger\": \"once\", "
      "\"at\": 5},\n"
      "  {\"point\": \"stream.ingest.read\", \"trigger\": \"every\", "
      "\"every\": 100},\n"
      "  {\"point\": \"stream.window.push\", \"trigger\": \"probability\",\n"
      "   \"probability\": 0.05, \"code\": \"internal\"},\n"
      "  {\"point\": \"stream.score.window\", \"trigger\": \"once\", "
      "\"at\": 30,\n"
      "   \"action\": \"crash\", \"message\": \"a\\n\\\"b\\\"\\tc\"}]}";
  const Canonicalize codec = MakeCodec(common::fault::ParseFaultSpecJson,
                                       common::fault::FaultSpecToJson);
  FuzzSeed("ParseFaultSpecJson", codec, docs_spec, seed_, draws_);
}

TEST_F(CodecFuzzTest, ScenarioSpecJson) {
  const Canonicalize codec =
      MakeCodec(scenario::ParseSpecJson, scenario::SpecToJson);
  for (const std::string& name : scenario::CatalogueNames()) {
    auto spec = scenario::CatalogueSpec(name);
    ASSERT_TRUE(spec.ok()) << name;
    FuzzSeed("ParseSpecJson", codec, scenario::SpecToJson(*spec), seed_,
             draws_);
    if (HasFailure()) return;
  }
}

// A NaN with a non-default payload: the codecs keep every bit.
double PayloadNaN() {
  const uint64_t bits = 0x7ff8000000000123ull;
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

// Attribute names a line codec could mangle: padding and a newline. The
// profile seed adds a quote and the empty name as switch and value.
const std::vector<std::string> kAwkwardNames = {" g ", "y\nz"};

core::SimpleConstraint NonFiniteSimple(const std::vector<std::string>& names,
                                       double scale) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  auto first = core::Projection::Create(names, linalg::Vector({scale, -0.5}));
  auto second = core::Projection::Create(names, linalg::Vector({-kInf, 0.25}));
  CCS_CHECK(first.ok() && second.ok());
  std::vector<core::BoundedConstraint> conjuncts;
  conjuncts.emplace_back(std::move(*first), -kInf, 2.5 * scale, PayloadNaN(),
                         kInf, 0.75);
  conjuncts.emplace_back(std::move(*second), -1.0, kInf, -kNaN, 0.125, kNaN);
  auto simple = core::SimpleConstraint::Create(names, std::move(conjuncts));
  CCS_CHECK(simple.ok());
  return std::move(simple).value();
}

TEST_F(CodecFuzzTest, ProfileDeserialize) {
  std::map<std::string, core::SimpleConstraint> cases;
  cases.emplace("", NonFiniteSimple(kAwkwardNames, 2.0));
  cases.emplace("v w", NonFiniteSimple(kAwkwardNames, -3.0));
  std::vector<core::DisjunctiveConstraint> disjunctions;
  disjunctions.emplace_back("a\"b", std::move(cases));
  const core::ConformanceConstraint profile(
      NonFiniteSimple(kAwkwardNames, 1.0), std::move(disjunctions));
  const Canonicalize codec = MakeCodec(
      core::Deserialize,
      [](const core::ConformanceConstraint& c) { return core::Serialize(c); });
  FuzzSeed("Deserialize", codec, core::Serialize(profile), seed_, draws_);
}

// `text` with its end line (if any) replaced by one holding the checksum
// of the bytes before it, so a mutation reaches the body parser.
std::string Reseal(const std::string& text) {
  const size_t end = text.rfind("\nend ");
  std::string body = end == std::string::npos ? text : text.substr(0, end + 1);
  if (!body.empty() && body.back() != '\n') body += '\n';
  return body + "end " + HexBits(Fnv1a64(body)) + "\n";
}

TEST_F(CodecFuzzTest, ParseCheckpoint) {
  stream::CheckpointData data;
  data.window_rows = 50;
  data.slide_rows = 25;
  data.refresh_every = 4;
  data.threshold_bits = DoubleBits(0.05);
  data.windows_committed = 12;
  data.windows_consumed = 13;
  data.rows_consumed = 325;
  data.refreshes = 3;
  data.attribute_names = kAwkwardNames;
  data.gram_count = 325;
  data.gram_sum = linalg::Matrix(3, 3);
  double v = 0.125;
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      data.gram_sum(r, c) = v;
      v = v * -1.75 + 0.0625;
    }
  }
  data.profile = NonFiniteSimple(data.attribute_names, 1.0);
  data.has_profile = true;
  const std::string seed_text = stream::SerializeCheckpoint(data);
  // Raw: the checksum refuses every byte change.
  const Canonicalize codec =
      MakeCodec(stream::ParseCheckpoint, stream::SerializeCheckpoint);
  FuzzSeed("ParseCheckpoint", codec, seed_text, seed_, draws_,
           /*only_seed=*/true);
  if (HasFailure()) return;
  // Re-sealed: the body parser behind the checksum, fuzzed as before.
  const Canonicalize resealed = [codec](const std::string& text) {
    return codec(Reseal(text));
  };
  FuzzSeed("ParseCheckpoint (re-sealed)", resealed, seed_text, seed_, draws_);
}

}  // namespace
}  // namespace ccs
