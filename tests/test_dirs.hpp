#pragma once

// Paths for test exports under gtest's temporary directory.

#include <gtest/gtest.h>

#include <string>

namespace rc::test {

/// `name` under ::testing::TempDir(), joined with exactly one '/'. Whether
/// TempDir() ends in '/' depends on the gtest build and on $TEST_TMPDIR.
inline std::string tempPath(const std::string& name) {
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  return dir + name;
}

}  // namespace rc::test
