// Per-test scratch directories.
//
// ctest runs every test case as its own process and runs several at
// once (`ctest -j`), so a scratch path that two test cases share races:
// one case's TearDown deletes the other's files mid-test. Every test
// that needs the filesystem takes its directory from unique_temp_dir().
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace peerscope::test {

/// A fresh, empty directory for the running test:
/// $TMPDIR/peerscope_<suite>_<test>_<pid>, with every character outside
/// [A-Za-z0-9] mapped to '_'. The caller removes it when done.
inline std::filesystem::path unique_temp_dir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = "peerscope_";
  if (info != nullptr) {
    name += std::string{info->test_suite_name()} + "_" + info->name() + "_";
  }
  name += std::to_string(::getpid());
  for (char& c : name) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9');
    if (!keep) c = '_';
  }
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace peerscope::test
