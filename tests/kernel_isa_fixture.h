// A GoogleTest fixture that runs each test of a suite under one compiled
// kernel instance (linalg::KernelIsa), switched through the
// linalg::internal test seam, and skips the instances the host cannot
// run. Use it as
//
//   class MyTest : public ccs::testutil::KernelIsaTest {};
//   INSTANTIATE_TEST_SUITE_P(Isa, MyTest, ccs::testutil::AllKernelIsas(),
//                            ccs::testutil::KernelIsaTestName);

#ifndef CCS_TESTS_KERNEL_ISA_FIXTURE_H_
#define CCS_TESTS_KERNEL_ISA_FIXTURE_H_

#include <gtest/gtest.h>

#include <string>

#include "linalg/matrix.h"

namespace ccs::testutil {

class KernelIsaTest : public ::testing::TestWithParam<linalg::KernelIsa> {
 protected:
  void SetUp() override {
    if (!linalg::internal::KernelIsaSupported(GetParam())) {
      GTEST_SKIP() << linalg::KernelIsaName(GetParam())
                   << " not supported here";
    }
    linalg::internal::SetKernelIsaForTesting(GetParam());
  }
  void TearDown() override {
    linalg::internal::SetKernelIsaForTesting(startup_);
  }

 private:
  const linalg::KernelIsa startup_ = linalg::SelectedKernelIsa();
};

inline auto AllKernelIsas() {
  return ::testing::Values(linalg::KernelIsa::kSse2,
                           linalg::KernelIsa::kAvx2);
}

inline std::string KernelIsaTestName(
    const ::testing::TestParamInfo<linalg::KernelIsa>& info) {
  return linalg::KernelIsaName(info.param);
}

}  // namespace ccs::testutil

#endif  // CCS_TESTS_KERNEL_ISA_FIXTURE_H_
