// The benchmark's workload: one client in a closed loop running the
// curation session cycle (SELECT shapes, zoom-ins, annotation ingest,
// archiving, checkpoints) against a file-backed engine, followed by
// close/reopen cycles. The three named workloads are three regimes of that
// cycle; see README.md for why each exists.

#ifndef INSIGHTBENCH_SESSION_CYCLE_H_
#define INSIGHTBENCH_SESSION_CYCLE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "harness.h"

namespace insightbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool self_test = false;
  std::string workdir;     // Fresh directory for the database files.
  std::string trace_path;  // Where the traced run writes its spans.
  Clock::time_point process_start;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RunResult {
  bool correct = false;
  bool self_test_passed = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

/// Names accepted by --workload.
std::vector<std::string> WorkloadNames();

/// Runs one workload to its end. An error means the run could not be set
/// up or torn down; failed operations are counted in the result instead.
in::Result<RunResult> RunWorkload(const RunConfig& config);

// --- Shared with the layer probes (layers.cc) --------------------------------

/// The summary instances every table carries, built and trained exactly as
/// the engine's workload builder does.
std::vector<std::unique_ptr<in::core::SummaryInstance>> MakeInstances();

/// Per-layer figures measured outside the session loop, at the end of a
/// traced run, on the engine's final state.
/// Every per-layer metric the traced run reports, with its unit, in order.
std::vector<std::pair<std::string, std::string>> PerLayerMetrics();

/// `stream` is every annotation written, with the row it was written to.
std::map<std::string, double> ProbeLayers(
    in::core::Engine* engine,
    const std::vector<std::pair<in::rel::RowId, in::ann::Annotation>>& stream);

}  // namespace insightbench

#endif  // INSIGHTBENCH_SESSION_CYCLE_H_
