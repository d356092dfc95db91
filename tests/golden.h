// Byte-exact golden comparison shared by the exporter tests.
//
// Regenerate a golden after a deliberate format change by running the test
// binary with PPGR_UPDATE_GOLDEN=1.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef PPGR_GOLDEN_DIR
#define PPGR_GOLDEN_DIR "tests/golden"
#endif

namespace ppgr::testing {

inline void check_golden(const char* name, const std::string& produced) {
  const std::string path = std::string{PPGR_GOLDEN_DIR} + "/" + name;
  if (std::getenv("PPGR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out{path};
    ASSERT_TRUE(out) << "cannot write " << path;
    out << produced;
    GTEST_SKIP() << "golden updated: " << path;
  }
  std::ifstream in{path};
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " (regenerate with PPGR_UPDATE_GOLDEN=1)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(produced, expected.str())
      << name << " drifted from its golden; if the change is deliberate, "
      << "regenerate with PPGR_UPDATE_GOLDEN=1";
}

}  // namespace ppgr::testing
