#include "harness.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

namespace insightbench {

// --- Samples -----------------------------------------------------------------

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::InterquartileMean() const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const size_t cut = sorted.size() / 4;
  double sum = 0.0;
  for (size_t i = cut; i < sorted.size() - cut; ++i) sum += sorted[i];
  return sum / static_cast<double>(sorted.size() - 2 * cut);
}

std::optional<std::pair<double, double>> Samples::Tail() const {
  if (values_.size() < 40) return std::nullopt;
  std::optional<std::pair<double, double>> best;
  for (double pct : {90.0, 95.0, 99.0, 99.9}) {
    double beyond = static_cast<double>(values_.size()) * (1.0 - pct / 100.0);
    if (beyond >= 10.0) best = std::make_pair(pct, Quantile(pct / 100.0));
  }
  return best;
}

// --- HostSpeed ---------------------------------------------------------------

namespace {
constexpr size_t kSyncReferenceBytes = 4096;
}  // namespace

HostSpeed::~HostSpeed() {
  if (sync_fd_ >= 0) ::close(sync_fd_);
}

in::Status HostSpeed::OpenSyncReference(const std::string& dir) {
  const std::string path = dir + "/reference-sync";
  sync_fd_ = ::open(path.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
  if (sync_fd_ < 0) return in::Status::IoError("cannot create " + path);
  // Allocates the block, so that every later reference sync rewrites it.
  char block[kSyncReferenceBytes] = {};
  if (::pwrite(sync_fd_, block, sizeof(block), 0) != static_cast<ssize_t>(sizeof(block)) ||
      ::fdatasync(sync_fd_) != 0) {
    return in::Status::IoError("cannot write " + path);
  }
  return in::Status::OK();
}

double HostSpeed::ReferenceSyncMs() {
  char block[kSyncReferenceBytes];
  std::memset(block, static_cast<int>(sink_ & 0xff), sizeof(block));
  Clock::time_point t0 = Clock::now();
  ssize_t written = ::pwrite(sync_fd_, block, sizeof(block), 0);
  int synced = ::fdatasync(sync_fd_);
  double ms = MsBetween(t0, Clock::now());
  sink_ += static_cast<uint64_t>(written) + static_cast<uint64_t>(synced);
  return ms;
}

double HostSpeed::ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

double HostSpeed::ReferenceMs() {
  // Sorting, hashing, allocation and string building: the engine's own mix
  // of work, on a fixed input.
  Clock::time_point t0 = Clock::now();
  in::Random rng(12345);
  std::vector<uint64_t> values(4096);
  for (uint64_t& v : values) v = rng.NextUint64();
  std::sort(values.begin(), values.end());
  std::unordered_map<uint64_t, uint64_t> counts;
  for (size_t i = 0; i < 2048; ++i) counts[values[i] ^ rng.NextUint64()] += i;
  std::string text;
  for (size_t i = 0; i < 300; ++i) text += std::to_string(values[i]);
  sink_ += text.size() + counts.size() + values[7];
  return MsBetween(t0, Clock::now());
}

// --- Checks ------------------------------------------------------------------

namespace {

uint64_t Corrupt(uint64_t v) { return v + 1; }
std::string Corrupt(std::string v) { return v + "#"; }
std::vector<std::string> Corrupt(std::vector<std::string> v) {
  v.push_back("#corrupt");
  return v;
}
std::vector<uint64_t> Corrupt(std::vector<uint64_t> v) {
  v.push_back(std::numeric_limits<uint64_t>::max());
  return v;
}
std::map<std::string, std::vector<uint64_t>> Corrupt(
    std::map<std::string, std::vector<uint64_t>> v) {
  v["#corrupt"];
  return v;
}
std::map<std::string, uint64_t> Corrupt(std::map<std::string, uint64_t> v) {
  ++v["#corrupt"];
  return v;
}

}  // namespace

template <typename T>
bool Checks::Compare(const std::string& name, const T& expected, const T& actual) {
  Tally& tally = tallies_[name];
  if (self_test_ && !tally.corrupted_tried) {
    tally.corrupted_tried = true;
    tally.corrupted_failed = !(Corrupt(expected) == actual);
  }
  ++tally.evaluations;
  bool ok = expected == actual;
  if (!ok) {
    if (tally.failures == 0) std::fprintf(stderr, "check failed: %s\n", name.c_str());
    ++tally.failures;
    ++failures_;
  }
  return ok;
}

bool Checks::Expect(const std::string& name, uint64_t expected, uint64_t actual) {
  bool ok = Compare(name, expected, actual);
  if (!ok) {
    std::fprintf(stderr, "  expected %llu, got %llu\n",
                 static_cast<unsigned long long>(expected),
                 static_cast<unsigned long long>(actual));
  }
  return ok;
}

bool Checks::Expect(const std::string& name, const std::string& expected,
                    const std::string& actual) {
  return Compare(name, expected, actual);
}

bool Checks::Expect(const std::string& name, const std::vector<std::string>& expected,
                    const std::vector<std::string>& actual) {
  return Compare(name, expected, actual);
}

bool Checks::Expect(const std::string& name, const std::vector<uint64_t>& expected,
                    const std::vector<uint64_t>& actual) {
  return Compare(name, expected, actual);
}

bool Checks::Expect(const std::string& name,
                    const std::map<std::string, std::vector<uint64_t>>& expected,
                    const std::map<std::string, std::vector<uint64_t>>& actual) {
  return Compare(name, expected, actual);
}

bool Checks::Expect(const std::string& name, const std::map<std::string, uint64_t>& expected,
                    const std::map<std::string, uint64_t>& actual) {
  return Compare(name, expected, actual);
}

bool Checks::self_test_passed() const {
  if (tallies_.empty()) return false;
  for (const auto& [name, tally] : tallies_) {
    if (!tally.corrupted_tried || !tally.corrupted_failed) return false;
  }
  return true;
}

void Checks::Report(std::FILE* out) const {
  for (const auto& [name, tally] : tallies_) {
    std::fprintf(out, "check %-34s evaluated %6llu  failed %llu", name.c_str(),
                 static_cast<unsigned long long>(tally.evaluations),
                 static_cast<unsigned long long>(tally.failures));
    if (self_test_) {
      std::fprintf(out, "  corrupted expected value: %s",
                   tally.corrupted_failed ? "detected" : "NOT DETECTED");
    }
    std::fprintf(out, "\n");
  }
}

// --- Tracer ------------------------------------------------------------------

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

uint32_t Tracer::Begin(const char* name) {
  int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
                    .count();
  uint32_t parent = open_.empty() ? 0 : open_.back();
  spans_.push_back(Span{name, parent, now, now});
  uint32_t id = static_cast<uint32_t>(spans_.size());
  open_.push_back(id);
  return id;
}

void Tracer::End(uint32_t id) {
  spans_[id - 1].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

in::Status Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return in::Status::IoError("cannot write trace " + path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << (i + 1) << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return out.good() ? in::Status::OK() : in::Status::IoError("short write to " + path);
}

// --- CountingDisk ------------------------------------------------------------

namespace {

/// Adds the elapsed time of one I/O call to the shared counter.
class IoTimer {
 public:
  explicit IoTimer(IoCounters* counters) : counters_(counters), start_(Clock::now()) {}
  ~IoTimer() {
    counters_->io_ns.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start_).count(),
        std::memory_order_relaxed);
  }
  IoTimer(const IoTimer&) = delete;
  IoTimer& operator=(const IoTimer&) = delete;

 private:
  IoCounters* counters_;
  Clock::time_point start_;
};

}  // namespace

in::Result<in::storage::PageId> CountingDisk::AllocatePage() {
  IoTimer timer(counters_);
  counters_->writes.fetch_add(1, std::memory_order_relaxed);
  return DiskManager::AllocatePage();
}

in::Status CountingDisk::ReadPage(in::storage::PageId id, char* out) {
  IoTimer timer(counters_);
  counters_->reads.fetch_add(1, std::memory_order_relaxed);
  return DiskManager::ReadPage(id, out);
}

in::Status CountingDisk::WritePage(in::storage::PageId id, const char* data) {
  IoTimer timer(counters_);
  counters_->writes.fetch_add(1, std::memory_order_relaxed);
  return DiskManager::WritePage(id, data);
}

in::Status CountingDisk::Fsync() {
  IoTimer timer(counters_);
  counters_->fsyncs.fetch_add(1, std::memory_order_relaxed);
  return DiskManager::Fsync();
}

in::Status CountingDisk::FsyncDir(const std::string& dir_path) {
  IoTimer timer(counters_);
  counters_->fsyncs.fetch_add(1, std::memory_order_relaxed);
  return DiskManager::FsyncDir(dir_path);
}

// --- Record ------------------------------------------------------------------

void Record::Add(in::ann::AnnotationId id, Note note) {
  rows_[note.row].push_back(Attachment{id, note.columns});
  notes_.emplace(id, std::move(note));
}

void Record::Attach(in::ann::AnnotationId id, in::rel::RowId row,
                    std::vector<size_t> columns) {
  rows_[row].push_back(Attachment{id, std::move(columns)});
  ++attaches_;
}

void Record::Archive(in::ann::AnnotationId id) {
  notes_.at(id).archived = true;
  archived_.push_back(id);
  ++archives_;
}

const Record::Note* Record::Find(in::ann::AnnotationId id) const {
  auto it = notes_.find(id);
  return it == notes_.end() ? nullptr : &it->second;
}

std::vector<uint64_t> Record::Expected(in::rel::RowId row,
                                       const std::vector<size_t>& kept) const {
  std::vector<uint64_t> ids;
  for (const Attachment& a : rows_[row]) {
    if (notes_.at(a.id).archived) continue;
    bool survives = kept.empty() || a.columns.empty();
    for (size_t c : a.columns) {
      if (std::find(kept.begin(), kept.end(), c) != kept.end()) survives = true;
    }
    if (survives) ids.push_back(a.id);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

std::vector<uint64_t> Record::LiveIds() const {
  std::vector<uint64_t> ids;
  for (const auto& [id, note] : notes_) {
    if (!note.archived) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

// --- Stream ------------------------------------------------------------------

Stream::Stream(uint64_t seed, const std::vector<in::workload::BirdSpecies>* species)
    : species_(species), rng_(seed ^ 0x5EEDF00DULL), gen_(seed + 17) {}

StreamItem Stream::Generate(std::optional<in::rel::RowId> target) {
  constexpr double kSkew = 0.8;
  constexpr double kCellFraction = 0.4;
  constexpr uint64_t kDocumentEvery = 33;  // About 3 % documents.
  constexpr uint64_t kSharedEvery = 20;    // 5 % shared with a second row.
  constexpr size_t kDocumentSentences = 20;
  constexpr size_t kColumns = 7;

  // Documents and shared annotations sit at fixed stream positions, and
  // documents go round-robin over the rows: their counts per row, which
  // dominate the summarizers' cost, are then the same for every seed.
  const uint64_t position = position_++;
  const bool document = position % kDocumentEvery == kDocumentEvery - 1;
  StreamItem item;
  in::rel::RowId row = target.has_value() ? *target
                       : document        ? (position / kDocumentEvery) % species_->size()
                                         : rng_.Zipf(species_->size(), kSkew);
  const in::workload::BirdSpecies& bird = (*species_)[row];
  in::workload::GeneratedAnnotation generated =
      document ? gen_.GenerateDocument(bird, kDocumentSentences) : gen_.GenerateComment(bird);
  item.spec.table = "birds";
  item.spec.row = row;
  if (rng_.Bernoulli(kCellFraction)) item.spec.columns = {rng_.Uniform(kColumns)};
  item.spec.body = std::move(generated.annotation.body);
  item.spec.author = std::move(generated.annotation.author);
  item.spec.kind = generated.annotation.kind;
  item.spec.title = std::move(generated.annotation.title);
  item.spec.timestamp = generated.annotation.timestamp;
  if (position % kSharedEvery == kSharedEvery - 1) {
    item.shared_row = (row + 1 + rng_.Uniform(species_->size() - 1)) % species_->size();
  }
  return item;
}

// --- Misc --------------------------------------------------------------------

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "null";
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code size_ec;
    if (it->is_regular_file(size_ec)) {
      uint64_t size = it->file_size(size_ec);
      if (!size_ec) total += size;
    }
  }
  return total;
}

}  // namespace insightbench
