// Minimal logging and assertion macros (CHECK / DCHECK / LOG).
//
// CHECK is for programmer errors (violated invariants); recoverable errors
// use Status. CHECK prints the failed condition plus any streamed context
// and aborts.

#ifndef CCS_COMMON_LOGGING_H_
#define CCS_COMMON_LOGGING_H_

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace ccs {
namespace internal {

/// Writes one fully assembled log line to stderr with a single
/// fwrite, so concurrent loggers interleave at line granularity, never
/// mid-line (piecewise operator<< on a shared std::cerr would shear).
inline void EmitLogLine(std::string line) {
  line += '\n';
  std::fwrite(line.data(), 1, line.size(), stderr);
  std::fflush(stderr);
}

/// Accumulates a failure message and aborts the process on destruction.
class FatalMessage {
 public:
  FatalMessage(const char* file, int line, const char* condition) {
    stream_ << "CHECK failed at " << file << ":" << line << ": " << condition
            << " ";
  }
  [[noreturn]] ~FatalMessage() {
    EmitLogLine(stream_.str());
    std::abort();
  }
  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

/// Log-level message emitted to stderr with a severity prefix. The full
/// line is assembled in a private buffer and emitted atomically on
/// destruction (single write), so LOG lines from different threads
/// never interleave within a line.
class LogMessage {
 public:
  explicit LogMessage(const char* level) { stream_ << "[" << level << "] "; }
  ~LogMessage() { EmitLogLine(stream_.str()); }
  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace ccs

#define CCS_CHECK(condition)                                             \
  if (!(condition))                                                      \
  ::ccs::internal::FatalMessage(__FILE__, __LINE__, #condition).stream()

#define CCS_CHECK_EQ(a, b) CCS_CHECK((a) == (b))
#define CCS_CHECK_NE(a, b) CCS_CHECK((a) != (b))
#define CCS_CHECK_LT(a, b) CCS_CHECK((a) < (b))
#define CCS_CHECK_LE(a, b) CCS_CHECK((a) <= (b))
#define CCS_CHECK_GT(a, b) CCS_CHECK((a) > (b))
#define CCS_CHECK_GE(a, b) CCS_CHECK((a) >= (b))

#ifdef NDEBUG
#define CCS_DCHECK(condition) \
  if (false) CCS_CHECK(condition)
#else
#define CCS_DCHECK(condition) CCS_CHECK(condition)
#endif

// Forces a single out-of-line compilation of a function. Determinism-
// critical floating-point kernels use this so every caller executes the
// SAME machine code: inlining re-compiles a kernel per call site, and
// codegen differences (FP operand ordering) between copies propagate
// different NaN payloads, breaking bitwise path-equivalence.
#if defined(__GNUC__) || defined(__clang__)
#define CCS_NOINLINE __attribute__((noinline))
#else
#define CCS_NOINLINE
#endif

// Starts a hot kernel on a 64-byte boundary, so where its inner loops
// fall relative to cache lines (and decoded-instruction cache windows) is
// fixed by the kernel's own code, not by the size of the code linked
// before it. Without it, growing an unrelated function moved the batch
// scoring loop across a line and cost AssessAll about 25% (GCC 12,
// Sapphire Rapids Xeon).
#if defined(__GNUC__) || defined(__clang__)
#define CCS_CODE_ALIGN64 __attribute__((aligned(64)))
#else
#define CCS_CODE_ALIGN64
#endif

#define CCS_LOG_INFO ::ccs::internal::LogMessage("INFO").stream()
#define CCS_LOG_WARNING ::ccs::internal::LogMessage("WARN").stream()
#define CCS_LOG_ERROR ::ccs::internal::LogMessage("ERROR").stream()

#endif  // CCS_COMMON_LOGGING_H_
