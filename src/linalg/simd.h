// Register lanes for the register-blocked linalg kernels
// (GramAccumulator::AccumulateBlock and
// internal::AccumulateRowsTimesMatrix). Internal to src/linalg: lane
// types and helpers only, no arithmetic of their own.
//
// Each kernel's tile body is a template on its lane type, compiled twice
// from one source: a V2 instance (two doubles per SSE2 register, the
// x86-64 baseline) and a V4 instance (four doubles) inside a function
// marked CCS_TARGET_AVX2. Nothing else differs: no FMA, no -march, and
// the build's -ffp-contract=off holds for both. A lane computes one IEEE
// multiply, then one IEEE add, like the scalar code, so the instances
// agree bit for bit on every non-NaN value; only a NaN's sign and
// payload may depend on the instance. A process runs one instance,
// selected once (linalg::SelectedKernelIsa in matrix.h).
//
// The tile bodies are CCS_ALWAYS_INLINE templates, never lambdas: an
// out-of-line body would be compiled without AVX2, and a lambda does not
// inherit its enclosing function's target. The lane helpers take
// vectors through pointers, since passing a V4 by value from code
// compiled without AVX changes the ABI (GCC's -Wpsabi).

#ifndef CCS_LINALG_SIMD_H_
#define CCS_LINALG_SIMD_H_

#if defined(__GNUC__) || defined(__clang__)
#define CCS_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define CCS_ALWAYS_INLINE inline
#endif

// Whether the V4 kernel instances are AVX2 code: on x86 with a
// GCC-compatible compiler, which has the target attribute and
// __builtin_cpu_supports. Elsewhere the V4 instances still compile, as
// generic vector code, but KernelIsaSupported never selects them.
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define CCS_HAVE_AVX2_KERNELS 1
#define CCS_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define CCS_HAVE_AVX2_KERNELS 0
#define CCS_TARGET_AVX2
#endif

namespace ccs::linalg::simd {

// Two doubles per SSE2 register, four per AVX2 register, via the
// GCC/Clang vector extension.
typedef double V2 __attribute__((vector_size(16)));
typedef double V4 __attribute__((vector_size(32)));

template <class V>
inline constexpr int kLanes = sizeof(V) / sizeof(double);

// The same lanes at double alignment, for loads and stores anywhere in
// a row. may_alias makes access through them legal over plain double
// arrays; GCC's and Clang's own unaligned-load intrinsics
// (_mm256_loadu_pd) are built on the same kind of typedef.
typedef double V2u __attribute__((vector_size(16), aligned(8), may_alias));
typedef double V4u __attribute__((vector_size(32), aligned(8), may_alias));

// Plain typed loads and stores, not memcpy: GCC folds a memcpy into a
// register move only where the vector type has a machine mode, and a V4
// has none in these helpers, which are compiled without AVX2. An
// unfolded memcpy pins the tiles' accumulators to the stack.
CCS_ALWAYS_INLINE void Load(V2* v, const double* p) {
  *v = *reinterpret_cast<const V2u*>(p);
}
CCS_ALWAYS_INLINE void Load(V4* v, const double* p) {
  *v = *reinterpret_cast<const V4u*>(p);
}
CCS_ALWAYS_INLINE void Store(double* p, const V2* v) {
  *reinterpret_cast<V2u*>(p) = *v;
}
CCS_ALWAYS_INLINE void Store(double* p, const V4* v) {
  *reinterpret_cast<V4u*>(p) = *v;
}

// Every lane of *v set to x.
template <class V>
CCS_ALWAYS_INLINE void Splat(V* v, double x) {
  for (int l = 0; l < kLanes<V>; ++l) (*v)[l] = x;
}

}  // namespace ccs::linalg::simd

#endif  // CCS_LINALG_SIMD_H_
