// Shared gtest support: parameterization over STM backends.
//
// Parameters are backend display names enumerated from stm::backends(),
// so every suite instantiated with AllAlgos()/SpeculativeAlgos() runs on
// every backend in the table, in its order, with no per-suite edits.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/stats.hpp"
#include "stm/api.hpp"
#include "stm/backend.hpp"

namespace adtm::test {

// Fixture that installs the parameterized backend before each test.
class AlgoTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    stm::Config cfg;
    cfg.backend = GetParam();
    stm::init(cfg);
    stats().reset();
  }
};

inline std::string algo_param_name(
    const ::testing::TestParamInfo<std::string>& info) {
  return info.param;  // display names are alphanumeric, valid as-is
}

// Display names of every backend supporting rollback of arbitrary bodies
// (all but CGL).
inline std::vector<std::string> speculative_backend_names() {
  std::vector<std::string> names;
  for (const stm::Backend& b : stm::backends()) {
    if (b.algo != stm::Algo::CGL) names.emplace_back(b.name);
  }
  return names;
}

// Display names of every backend.
inline std::vector<std::string> all_backend_names() {
  std::vector<std::string> names;
  for (const stm::Backend& b : stm::backends()) names.emplace_back(b.name);
  return names;
}

// The speculative backends (support rollback of arbitrary bodies).
inline auto SpeculativeAlgos() {
  return ::testing::ValuesIn(speculative_backend_names());
}

// Every backend, including the direct-mode CGL baseline.
inline auto AllAlgos() { return ::testing::ValuesIn(all_backend_names()); }

}  // namespace adtm::test
