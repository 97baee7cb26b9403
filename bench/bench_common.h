// Shared helpers for the figure/table benchmark harnesses.
#pragma once

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

namespace deeplens {
namespace bench {

/// Scratch directory for a benchmark run (removed on destruction).
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name) {
    path_ = (std::filesystem::temp_directory_path() /
             (name + "_" + std::to_string(::getpid())))
                .string();
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Scale multiplier: DEEPLENS_BENCH_SCALE=N multiplies dataset sizes
/// (default 1 = laptop scale; the paper-scale cardinalities are reached
/// around 40–60 depending on the dataset).
inline int BenchScale() {
  const char* env = std::getenv("DEEPLENS_BENCH_SCALE");
  if (env == nullptr) return 1;
  const int v = std::atoi(env);
  return v >= 1 ? v : 1;
}

inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("\n=== %s ===\n", title);
  std::printf("(reproduces %s; shapes comparable, absolute numbers are\n"
              " machine/simulator dependent)\n\n",
              paper_ref);
}

}  // namespace bench
}  // namespace deeplens
