// Skips every test of a binary when PARSYRK_UKERNEL names a SIMD tier this
// host cannot run, so the per-tier ctest runs (tests/CMakeLists.txt) report
// skipped, not failed, on such a host. Unset, "generic", or a name that is
// no tier at all (a misspelling) leaves the tests to run, and the kernels
// throw on the bad name at their first call.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "matrix/ukernel.hpp"

namespace {

class TierGuard : public ::testing::Environment {
 public:
  void SetUp() override {
    const char* env = std::getenv("PARSYRK_UKERNEL");
    const std::string want = env == nullptr ? "" : env;
    if (want != "avx512" && want != "avx2") return;
    for (const parsyrk::kern::Ukernel& tier :
         parsyrk::kern::host_ukernels()) {
      if (want == tier.name) return;
    }
    GTEST_SKIP() << "host lacks micro-kernel tier " << want;
  }
};

[[maybe_unused]] const ::testing::Environment* const kTierGuard =
    ::testing::AddGlobalTestEnvironment(new TierGuard);

}  // namespace
