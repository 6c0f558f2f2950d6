#pragma once

// Shared plumbing of the repository benchmark: command-line arguments,
// clocks, percentiles, peak memory, scratch files and the result record
// every workload fills. Workloads call only the program's public APIs;
// every time they record is taken around those calls from outside.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "alamr/core/trace.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

inline double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

/// Seed of the k-th independent input of a run (a pass, a campaign, a
/// session): the same run seed always derives the same sequence.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k) {
  return alamr::core::trace::Fingerprint().add(seed).add(k).value();
}

/// Peak resident set of this process so far, in MB (Linux reports KiB).
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Execution lanes of the host, never below 1.
inline std::size_t host_lanes() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

/// Scratch directory for a workload's files, inside the working directory
/// (the checkout the benchmark runs from). Removed by the destructor.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(std::filesystem::path(".bench_build") / "tmp" /
              (tag + "-" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  const std::filesystem::path& path() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: every number it measured, by name and
/// unit. run.py picks the ones BENCHMARK.json declares.
struct Result {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  // correctness checks that failed

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      failures.push_back(what);
    }
  }
};

/// Median of `reps` timed calls of `fn` (set-up is short and noisy; the
/// median of several is what the benchmark reports).
template <typename Fn>
double median_seconds(std::size_t reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    fn();
    samples.push_back(seconds_since(start));
  }
  return median(std::move(samples));
}

Result run_offline(const Args& args);
Result run_serve(const Args& args);
Result run_campaign(const Args& args);

}  // namespace perfbench
