// Two-double register lanes for the register-blocked linalg kernels
// (GramAccumulator::AccumulateBlock and
// internal::AccumulateRowsTimesMatrix). Internal to src/linalg: shapes
// and lane helpers only, no arithmetic of their own.

#ifndef CCS_LINALG_SIMD_H_
#define CCS_LINALG_SIMD_H_

#include <cstring>
#include <type_traits>

namespace ccs::linalg::simd {

// Two doubles per SSE2 register via the GCC/Clang vector extension. Its
// lane arithmetic is plain IEEE double arithmetic (no -march, no FMA
// under -ffp-contract=off), so a lane computes exactly the scalar bits.
typedef double V2 __attribute__((vector_size(16)));

// Compile-time tile shapes passed to generic lambdas.
template <int N>
using Const = std::integral_constant<int, N>;

inline V2 LoadV2(const double* p) {
  V2 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void StoreV2(double* p, V2 v) { std::memcpy(p, &v, sizeof(v)); }

}  // namespace ccs::linalg::simd

#endif  // CCS_LINALG_SIMD_H_
