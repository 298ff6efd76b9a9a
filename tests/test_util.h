#ifndef CNED_TESTS_TEST_UTIL_H_
#define CNED_TESTS_TEST_UTIL_H_

// Shared scratch-directory helper for the suites that write snapshot or
// serving directories (serve_*, quantized_table_test, mutable_laesa_test).

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <string>

namespace cned {

/// A fresh directory under /tmp, removed with its contents on destruction.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/cned_test_XXXXXX";
    const char* p = mkdtemp(tmpl);
    EXPECT_NE(p, nullptr);
    if (p != nullptr) path = p;
  }
  ~TempDir() {
    if (!path.empty()) std::filesystem::remove_all(path);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

}  // namespace cned

#endif  // CNED_TESTS_TEST_UTIL_H_
