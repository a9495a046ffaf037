// Per-process scratch paths for tests that write files.
//
// ctest runs every gtest case as its own process, and `ctest -j` runs
// several at once, so two cases writing one fixed path race: one rewrites
// the file while another reads it. Suffixing the process id keeps
// concurrently running cases apart.

#ifndef STSM_TESTS_TEMP_PATH_H_
#define STSM_TESTS_TEMP_PATH_H_

#include <unistd.h>

#include <string>

#include "gtest/gtest.h"

namespace stsm {

// `<gtest temp dir><name>.<pid>`; a file or a directory name.
inline std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name + "." + std::to_string(::getpid());
}

}  // namespace stsm

#endif  // STSM_TESTS_TEMP_PATH_H_
