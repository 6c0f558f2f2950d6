// The repository benchmark binary.
//
//   perfbench --workload <offline-paper|serve-tenants|campaign-cold>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints one "name = value unit" line per measured number, then, as the
// last line, a JSON object with every number measured. perfbench/run.py
// builds this binary and reduces that object to the metrics BENCHMARK.json
// declares. Exits 1 when a correctness check failed, 2 on bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "common.hpp"

namespace {

using perfbench::Args;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<offline-paper|serve-tenants|campaign-cold> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing flag value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0.0)) {
        usage("--seconds must be a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else {
      usage("unknown flag");
    }
  }
  if (args.workload.empty() || !have_seed || args.seconds <= 0.0) {
    usage("--workload, --seed and --seconds are required");
  }
  return args;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  perfbench::Result result;
  try {
    if (args.workload == "offline-paper") {
      result = perfbench::run_offline(args);
    } else if (args.workload == "serve-tenants") {
      result = perfbench::run_serve(args);
    } else if (args.workload == "campaign-cold") {
      result = perfbench::run_campaign(args);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const perfbench::Metric& m : result.metrics) {
    std::printf("%-34s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("attempted = %zu, failed = %zu, correct = %s\n", result.attempted,
              result.failed, result.correct ? "true" : "false");
  for (const std::string& f : result.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              result.correct ? "true" : "false", result.attempted, result.failed);
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    // JSON has no NaN or infinity; run.py rejects a null value.
    char value[32] = "null";
    if (std::isfinite(m.value)) std::snprintf(value, sizeof value, "%.17g", m.value);
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "",
                json_escape(m.name).c_str(), value, json_escape(m.unit).c_str());
  }
  std::printf("}, \"failures\": [");
  for (std::size_t i = 0; i < result.failures.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", json_escape(result.failures[i]).c_str());
  }
  std::printf("]}\n");
  return result.correct ? 0 : 1;
}
