// Measurement scaffolding of the end-to-end benchmark: latency samples,
// the correctness-check registry (with its self-test), span tracing, the
// I/O-counting disk, the benchmark's own record of every annotation it
// wrote, and the seeded annotation stream.

#ifndef INSIGHTBENCH_HARNESS_H_
#define INSIGHTBENCH_HARNESS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "storage/disk_manager.h"
#include "workload/annotation_gen.h"
#include "workload/bird_data.h"

namespace insightbench {

namespace in = insightnotes;

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Latency (or any per-operation) samples of one metric.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Median() const { return Quantile(0.5); }
  /// Mean of the middle half: the samples left after dropping the lowest
  /// and the highest quarter; 0 when empty.
  double InterquartileMean() const;
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  /// Highest of p90/p95/p99/p99.9 with at least ten samples above it;
  /// nullopt below forty samples (such a percentile would be no tail).
  std::optional<std::pair<double, double>> Tail() const;

 private:
  std::vector<double> values_;
};

/// Host-speed calibration. This host's speed drifts by up to half over a
/// few seconds (other tenants share its cores), and a CPU-time clock drifts
/// with it. A fixed reference kernel, which is benchmark code that no engine
/// change moves, is timed a few times right before and right after every
/// measured operation; the operation's time is scaled by the kernel's
/// nominal time over its median measured time, giving milliseconds at
/// reference host speed. A long operation takes more kernel timings, since
/// a single one tells little about the host over its whole span.
///
/// The disk is shared too, and its sync latency drifts on its own. For an
/// operation that syncs the WAL, MeasureSynced scales only the calling
/// thread's CPU time by the kernel; the rest of the wall time, the wait for
/// the sync, is scaled the same way by a reference sync: an in-place 4 KiB
/// write and fdatasync of the benchmark's own file, on the same file system
/// as the database, timed around the operation.
class HostSpeed {
 public:
  /// The kernel's time on this host when it runs at full speed.
  static constexpr double kNominalMs = 0.5;
  /// The reference sync's typical time on this host.
  static constexpr double kNominalSyncMs = 0.1;
  /// Kernel timings on each side of an operation.
  static constexpr size_t kReferenceRuns = 3;
  /// Kernel timings on each side of an operation of a second or so.
  static constexpr size_t kLongReferenceRuns = 9;

  struct Timing {
    double raw_ms = 0.0;  // Wall time.
    double ms = 0.0;      // Wall time at reference host speed.
  };

  /// Runs `fn` between kernel timings; scales its wall time.
  template <typename Fn>
  Timing Measure(Fn&& fn, size_t reference_runs = kReferenceRuns) {
    return Run(std::forward<Fn>(fn), reference_runs, /*scale_waits=*/true);
  }

  /// Runs `fn` between kernel and reference-sync timings; scales its CPU
  /// time by the kernel and the rest by the reference sync.
  template <typename Fn>
  Timing MeasureSynced(Fn&& fn) {
    return Run(std::forward<Fn>(fn), kReferenceRuns, /*scale_waits=*/false);
  }

  HostSpeed() = default;
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;
  ~HostSpeed();

  /// Creates the reference-sync file in `dir`, which must exist. Until then
  /// MeasureSynced adds sync waits as measured.
  in::Status OpenSyncReference(const std::string& dir);

  /// One timing of the reference kernel, in milliseconds.
  double ReferenceMs();

  /// One timing of the reference sync, in milliseconds.
  double ReferenceSyncMs();

  /// Median speed factor over every Measure call (1 = reference speed).
  double MedianFactor() const { return factors_.Median(); }

 private:
  template <typename Fn>
  Timing Run(Fn&& fn, size_t reference_runs, bool scale_waits) {
    const bool sync_reference = !scale_waits && sync_fd_ >= 0;
    Samples reference, sync_reference_ms;
    for (size_t i = 0; i < reference_runs; ++i) {
      reference.Add(ReferenceMs());
      if (sync_reference) sync_reference_ms.Add(ReferenceSyncMs());
    }
    double cpu0 = ThreadCpuMs();
    Clock::time_point t0 = Clock::now();
    fn();
    Clock::time_point t1 = Clock::now();
    double cpu_ms = ThreadCpuMs() - cpu0;
    for (size_t i = 0; i < reference_runs; ++i) {
      reference.Add(ReferenceMs());
      if (sync_reference) sync_reference_ms.Add(ReferenceSyncMs());
    }
    Timing t;
    t.raw_ms = MsBetween(t0, t1);
    double factor = kNominalMs / reference.Median();
    double scaled_ms = scale_waits ? t.raw_ms : std::min(cpu_ms, t.raw_ms);
    double wait_factor = sync_reference ? kNominalSyncMs / sync_reference_ms.Median() : 1.0;
    t.ms = scaled_ms * factor + (t.raw_ms - scaled_ms) * wait_factor;
    factors_.Add(factor);
    return t;
  }

  /// CPU time consumed so far by the calling thread.
  static double ThreadCpuMs();

  Samples factors_;
  uint64_t sink_ = 0;
  int sync_fd_ = -1;
};

/// Correctness checks, each compared against a value the benchmark computed
/// from its own record. In self-test mode the first evaluation of every
/// check is repeated with one corrupted expected value, which must fail.
class Checks {
 public:
  explicit Checks(bool self_test) : self_test_(self_test) {}

  bool Expect(const std::string& name, uint64_t expected, uint64_t actual);
  bool Expect(const std::string& name, const std::string& expected,
              const std::string& actual);
  bool Expect(const std::string& name, const std::vector<std::string>& expected,
              const std::vector<std::string>& actual);
  bool Expect(const std::string& name, const std::vector<uint64_t>& expected,
              const std::vector<uint64_t>& actual);
  bool Expect(const std::string& name,
              const std::map<std::string, std::vector<uint64_t>>& expected,
              const std::map<std::string, std::vector<uint64_t>>& actual);
  bool Expect(const std::string& name, const std::map<std::string, uint64_t>& expected,
              const std::map<std::string, uint64_t>& actual);

  bool all_passed() const { return failures_ == 0; }
  /// Self-test verdict: every check ran and every corrupted comparison failed.
  bool self_test_passed() const;
  /// One line per check: evaluations, failures, and (self-test) the verdict
  /// on its corrupted copy.
  void Report(std::FILE* out) const;

 private:
  struct Tally {
    uint64_t evaluations = 0;
    uint64_t failures = 0;
    bool corrupted_tried = false;
    bool corrupted_failed = false;
  };

  template <typename T>
  bool Compare(const std::string& name, const T& expected, const T& actual);

  bool self_test_;
  uint64_t failures_ = 0;
  std::map<std::string, Tally> tallies_;
};

/// Spans recorded around calls into the engine's layers. Kept in memory and
/// written out as JSON lines when the run ends.
class Tracer {
 public:
  Tracer();
  uint32_t Begin(const char* name);
  void End(uint32_t id);
  in::Status Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint32_t parent;  // 0 = root.
    int64_t start_ns;
    int64_t end_ns;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;  // Span id = index + 1.
  std::vector<uint32_t> open_;
};

/// RAII span; a no-op without a tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->Begin(name) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  uint32_t id_;
};

/// Page I/O counters shared by the page-file and index-file disks.
struct IoCounters {
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> fsyncs{0};
  std::atomic<uint64_t> io_ns{0};
};

/// A DiskManager that counts and times every page read, page write and
/// fsync (the compactor thread syncs directories, hence the atomics).
class CountingDisk final : public in::storage::DiskManager {
 public:
  explicit CountingDisk(IoCounters* counters) : counters_(counters) {}

  in::Result<in::storage::PageId> AllocatePage() override;
  in::Status ReadPage(in::storage::PageId id, char* out) override;
  in::Status WritePage(in::storage::PageId id, const char* data) override;
  in::Status Fsync() override;
  in::Status FsyncDir(const std::string& dir_path) override;

 private:
  IoCounters* counters_;
};

/// The benchmark's own record of every annotation it had acknowledged:
/// target rows and columns, body, archive state and its ClassBird1 label.
class Record {
 public:
  struct Note {
    in::rel::RowId row = 0;
    std::vector<size_t> columns;
    std::string body;
    size_t label1 = 0;
    bool archived = false;
  };

  explicit Record(size_t num_rows) : rows_(num_rows) {}

  void Add(in::ann::AnnotationId id, Note note);
  void Attach(in::ann::AnnotationId id, in::rel::RowId row, std::vector<size_t> columns);
  void Archive(in::ann::AnnotationId id);

  const Note* Find(in::ann::AnnotationId id) const;
  /// Live (non-archived) annotations on `row` that survive keeping only the
  /// base columns `kept` (empty = every column), sorted by id.
  std::vector<uint64_t> Expected(in::rel::RowId row, const std::vector<size_t>& kept) const;
  /// Attachments on `row`, archived ones included (as the store keeps them).
  size_t AttachmentsOn(in::rel::RowId row) const { return rows_[row].size(); }
  /// WAL mutation records the engine acknowledged: adds, attaches, archives.
  uint64_t mutations() const { return notes_.size() + attaches_ + archives_; }
  /// The archived ids, in archive order.
  const std::vector<uint64_t>& archived() const { return archived_; }
  /// Live annotation ids, for picking curation targets.
  std::vector<uint64_t> LiveIds() const;

 private:
  struct Attachment {
    uint64_t id;
    std::vector<size_t> columns;
  };
  std::unordered_map<uint64_t, Note> notes_;
  std::vector<std::vector<Attachment>> rows_;
  std::vector<uint64_t> archived_;
  uint64_t attaches_ = 0;
  uint64_t archives_ = 0;
};

/// One generated annotation: the spec to write, and a second row to share
/// it with (shared annotations), if any.
struct StreamItem {
  in::core::AnnotateSpec spec;
  std::optional<in::rel::RowId> shared_row;
};

/// The seeded annotation stream: comments Zipf-skewed over rows, 40 % of
/// all annotations cell-level, every 33rd a document (round-robin over the
/// rows), every 20th shared with a second row.
class Stream {
 public:
  Stream(uint64_t seed, const std::vector<in::workload::BirdSpecies>* species);
  StreamItem Next() { return Generate(std::nullopt); }
  /// The next annotation of the stream, written to `row` whatever its kind.
  StreamItem NextOn(in::rel::RowId row) { return Generate(row); }

 private:
  StreamItem Generate(std::optional<in::rel::RowId> row);

  const std::vector<in::workload::BirdSpecies>* species_;
  in::Random rng_;
  in::workload::AnnotationGenerator gen_;
  uint64_t position_ = 0;
};

/// Shortest round-trip decimal form of `v`, for the JSON result line.
std::string FormatNumber(double v);

/// Peak resident set size of this process in MiB.
double PeakRssMb();

/// Total size of the regular files directly under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

}  // namespace insightbench

#endif  // INSIGHTBENCH_HARNESS_H_
