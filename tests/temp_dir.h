// Per-test scratch directories for the test binaries.
#pragma once

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace ssum {

namespace internal {

/// Removes the running test's scratch directory when the test ends.
class TestTempDirCleaner : public ::testing::EmptyTestEventListener {
 public:
  std::string dir;  ///< empty until the running test asks for one

  void OnTestEnd(const ::testing::TestInfo&) override {
    if (dir.empty()) return;
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
    dir.clear();
  }
};

/// Registered before main() runs; the listener list owns it.
inline TestTempDirCleaner* const kTestTempDirCleaner = [] {
  auto* cleaner = new TestTempDirCleaner;
  ::testing::UnitTest::GetInstance()->listeners().Append(cleaner);
  return cleaner;
}();

}  // namespace internal

/// The running test's own scratch directory. The first call in a test makes
/// a fresh `ssum_test_XXXXXX` directory under the system temp dir with
/// mkdtemp, so no two tests or concurrent runs share one; it is removed, with
/// everything in it, when the test ends. Call it from the test's thread.
inline std::string TestTempDir() {
  std::string& dir = internal::kTestTempDirCleaner->dir;
  if (dir.empty()) {
    std::string path =
        (std::filesystem::temp_directory_path() / "ssum_test_XXXXXX").string();
    if (mkdtemp(path.data()) == nullptr) {
      ADD_FAILURE() << "mkdtemp failed for " << path;
      return path;
    }
    dir = path;
  }
  return dir;
}

/// An empty directory `name` inside TestTempDir().
inline std::string FreshTestSubdir(const std::string& name) {
  const std::string dir = TestTempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace ssum
