// insightbench: end-to-end benchmark of the InsightNotes engine.
//
//   insightbench --workload <propagate|ingest|curate> --seed <n> --seconds <s>
//                --trace <0|1> --workdir <empty dir> [--trace-out <file>]
//                [--self-test]
//
// Prints a human-readable report, then as its last line one JSON object
// with the keys correct, attempted, failed and metrics: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. With
// --self-test every correctness check is also run once against a corrupted
// expected value, and the exit code says whether each such run failed.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "session_cycle.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr, "insightbench: %s\n", message);
  return 2;
}

std::string Json(const insightbench::RunResult& result, bool trace) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  const auto& metrics = trace ? result.per_layer : result.end_to_end;
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           insightbench::FormatNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  insightbench::RunConfig config;
  config.process_start = insightbench::Clock::now();
  bool have_workload = false, have_workdir = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--self-test") {
      config.self_test = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atoi(value.c_str());
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--workdir") {
      config.workdir = value;
      have_workdir = true;
    } else if (arg == "--trace-out") {
      config.trace_path = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_workdir) return Usage("--workload and --workdir are required");
  if (config.seconds < 1) return Usage("--seconds must be at least 1");
  if (config.trace && config.trace_path.empty()) {
    config.trace_path = config.workdir + "/trace.jsonl";
  }

  insightnotes::Result<insightbench::RunResult> result = insightbench::RunWorkload(config);
  if (!result.ok()) {
    std::fprintf(stderr, "insightbench: %s\n", result.status().ToString().c_str());
    return 1;
  }
  if (config.self_test) {
    bool ok = result->self_test_passed && result->correct;
    std::printf("self-test %s: %s\n", config.workload.c_str(),
                ok ? "every check passed on true values and failed on corrupted ones"
                   : "FAILED");
    return ok ? 0 : 1;
  }
  std::printf("%s\n", Json(*result, config.trace).c_str());
  return 0;
}
