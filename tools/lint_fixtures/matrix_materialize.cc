// Seeded violations for the matrix-materialize rule: NumericMatrixFor
// under src/core/ or src/stream/ rebuilds a per-call Matrix in the hot
// synthesize→score layers, reintroducing the allocations the zero-copy
// view layer (NumericViewFor) exists to eliminate.
// ccs-lint-fixture-path: src/core/matrix_materialize.cc

namespace fixture {

template <typename Frame>
int MaterializesInHotLayer(const Frame& df) {
  return df.NumericMatrixFor(1);  // EXPECT-LINT: matrix-materialize
}

template <typename Frame>
int ColdCallerWithReason(const Frame& df) {
  // ccs-lint: allow(matrix-materialize): fixture demonstrating the
  // escape hatch for a genuinely cold caller
  return df.NumericMatrixFor(2);
}

template <typename Frame>
int WalksTheViewInstead(const Frame& df) {
  return df.NumericViewFor(3);
}

}  // namespace fixture
