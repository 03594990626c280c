#include "session_cycle.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "core/summary_instance.h"
#include "exec/metrics.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "sql/session.h"
#include "workload/workload.h"

namespace insightbench {
namespace {

using in::Result;
using in::Status;
namespace core = in::core;
namespace exec = in::exec;
namespace rel = in::rel;
namespace sql = in::sql;
namespace workload = in::workload;

constexpr const char* kTable = "birds";
constexpr size_t kDiseaseLabel = 1;  // ClassBird1: Behavior, Disease, Anatomy, Other.
constexpr size_t kFamilyColumn = 3;
// The species table is one fixed catalog: its family structure sets the
// join's size, so only the annotation stream is drawn from --seed.
constexpr uint64_t kSpeciesSeed = 42;
constexpr size_t kLoadBatch = 256;   // Set-up ingest batch size.
constexpr size_t kWarmupRounds = 1;  // Untimed rounds before the timed phase.
constexpr size_t kProbedRounds = 8;  // Traced run: rounds with per-SELECT probes.
// The identity check plans without the optimizer and with 4-row morsels, so
// that parallelism 2 runs the morsel-parallel tree over several morsels.
constexpr size_t kIdentityMorselSize = 4;
const char* const kColumnNames[] = {"id",     "name",   "sci_name",  "family",
                                    "region", "weight", "population"};

/// One regime of the session cycle. Every count is fixed, so a run's final
/// state depends only on the seed and --seconds.
struct Regime {
  const char* name;
  size_t species;          // Rows of the birds table.
  size_t base_per_tuple;   // Annotations per row loaded at set-up.
  size_t pool_pages;       // Buffer-pool frames.
  size_t cache_budget;     // Zoom-in cache budget in bytes.
  size_t parallelism;      // SET PARALLELISM of the session.
  bool optimizer;          // SET OPTIMIZER; off keeps the morsel-parallel plans.
  size_t morsel_size;      // Tuples per morsel of the parallel section.
  double rounds_per_second;  // Rounds per --seconds, calibrated on 4 cores.
  size_t batches_per_round;  // Engine::AnnotateBatch calls per round.
  size_t batch_size;
  size_t statements_per_round;  // ANNOTATE statements per round.
  size_t checkpoint_every;      // Checkpoint after this many batches.
  size_t archive_every;         // ArchiveAnnotation every this many rounds.
  size_t query_every;           // SELECTs and zoom-ins every this many rounds.
  size_t zoom_lag;              // Age in query rounds of the older zoom-in target.
  size_t reopen_cycles;
};

const Regime kRegimes[] = {
    // Summary algebra dominates: everything fits the pool and the cache.
    {"propagate", 24, 400, 1024, 4 << 20, 1, true, 256, 9.0, 1, 32, 4, 8, 4, 1, 6, 7},
    // Summarizers, WAL, heap, checkpoints and recovery dominate.
    {"ingest", 24, 40, 1024, 1 << 20, 1, true, 256, 6.0, 4, 64, 8, 4, 4, 2, 3, 7},
    // Page reads and cache evictions dominate. With the optimizer off and
    // morsels of 4 rows the SELECTs run the morsel-parallel plan tree.
    {"curate", 24, 400, 64, 256 << 10, 2, false, 4, 6.0, 1, 32, 4, 8, 3, 1, 3, 7},
};

enum Shape : size_t { kCarry, kTrim, kJoin, kGroup, kFilter, kNumShapes };

struct ShapeDef {
  const char* name;
  const char* sql;
};

const ShapeDef kShapes[kNumShapes] = {
    {"carry", "SELECT * FROM birds b WHERE b.weight > 1.0"},
    {"trim", "SELECT b.id, b.name, b.weight FROM birds b WHERE b.weight > 1.0"},
    {"join", "SELECT * FROM birds l, birds r WHERE l.family = r.family"},
    {"group", "SELECT b.family, COUNT(*) FROM birds b GROUP BY b.family"},
    {"filter",
     "SELECT b.id, b.name FROM birds b WHERE SUMMARY_COUNT(ClassBird1, 'Disease') >= 3"},
};

/// What a SELECT must return, computed from the benchmark's own record.
struct Expectation {
  std::vector<std::string> rows;  // Rendered tuples, sorted.
  std::map<std::string, std::vector<uint64_t>> ids;  // Row -> ClassBird1 ids.
  std::map<std::string, uint64_t> pairs;             // Join: pairs per family.
};

std::string SqlQuote(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') out += '\'';
    out += c;
  }
  return out + "'";
}

std::vector<uint64_t> Union(std::vector<uint64_t> a, const std::vector<uint64_t>& b) {
  a.insert(a.end(), b.begin(), b.end());
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  return a;
}

/// Union of the ids behind every component of the row's ClassBird1 object.
std::vector<uint64_t> ClassBird1Ids(const core::AnnotatedTuple& row) {
  std::vector<uint64_t> ids;
  core::SummaryObject* summary = row.FindSummary("ClassBird1");
  if (summary == nullptr) return ids;
  for (size_t c = 0; c < summary->NumComponents(); ++c) {
    Result<std::vector<in::ann::AnnotationId>> part = summary->ZoomIn(c);
    if (part.ok()) ids.insert(ids.end(), part->begin(), part->end());
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

/// Lower-case operator kind of a plan node name ("HashJoin(l.family = ...)"
/// -> "hashjoin").
std::string OperatorKind(const std::string& name) {
  std::string kind;
  for (char c : name) {
    if (c == '(' || c == ' ' || c == '[') break;
    kind += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return kind;
}

/// Adds each node's self time into `self_ms` by operator kind: its wall time
/// minus its children's, or minus the slowest child's for a Gather, whose
/// worker pipelines run side by side.
void AddSelfTimes(const exec::PlanMetrics& node, std::map<std::string, double>* self_ms) {
  const bool parallel_children = OperatorKind(node.name) == "gather";
  uint64_t children_ns = 0;
  for (const exec::PlanMetrics& child : node.children) {
    children_ns = parallel_children ? std::max(children_ns, child.metrics.wall_ns)
                                    : children_ns + child.metrics.wall_ns;
    AddSelfTimes(child, self_ms);
  }
  double self_ns = node.metrics.wall_ns > children_ns
                       ? static_cast<double>(node.metrics.wall_ns - children_ns)
                       : 0.0;
  (*self_ms)[OperatorKind(node.name)] += self_ns / 1e6;
}

/// Drains `plan` at the engine's current epoch, as Engine::Execute does.
Status Drain(core::Engine* engine, exec::Operator* plan) {
  auto context = std::make_shared<exec::QueryContext>();
  plan->SetQueryContext(context);
  Result<core::ReadSnapshot> snapshot = engine->PinSnapshot();
  if (snapshot.ok()) context->SetSnapshot(*snapshot);
  Status status = plan->Open();
  core::AnnotatedBatch batch;
  while (status.ok()) {
    Result<bool> more = plan->NextBatch(&batch);
    if (!more.ok()) {
      status = more.status();
    } else if (!*more) {
      break;
    }
  }
  context->SetSnapshot(nullptr);
  return status;
}

/// Parses and plans a SELECT as SqlSession does with these settings.
Result<std::unique_ptr<exec::Operator>> Plan(core::Engine* engine, const char* text,
                                             size_t parallelism, bool optimize,
                                             size_t morsel_size) {
  INSIGHTNOTES_ASSIGN_OR_RETURN(sql::Statement statement, sql::Parse(text));
  auto* select = std::get_if<sql::SelectStatement>(&statement);
  if (select == nullptr) return Status::InvalidArgument("not a SELECT");
  sql::PlannerOptions options;
  options.parallelism = parallelism;
  options.optimize = optimize;
  options.morsel_size = morsel_size;
  return sql::PlanSelect(*select, engine, options);
}

class SessionCycle {
 public:
  SessionCycle(const RunConfig& config, const Regime& regime)
      : config_(config),
        regime_(regime),
        species_(workload::GenerateSpecies(regime.species, kSpeciesSeed)),
        record_(species_.size()),
        stream_(config.seed, &species_),
        curation_rng_(config.seed ^ 0xC0FFEEULL),
        checks_(config.self_test) {
    if (config.trace) tracer_ = std::make_unique<Tracer>();
  }

  Result<RunResult> Run();

 private:
  struct ZoomTarget {
    core::QueryId qid = 0;
    size_t component = 1;  // 1-based, as ZOOMIN's INDEX.
  };

  core::EngineOptions Options(bool open_existing);
  Status OpenEngine(bool open_existing);
  Status Replay();
  Status OpenSession();
  Status Setup();
  void Round(size_t round, bool timed);
  ZoomTarget Select(Shape shape, bool timed);
  void ZoomIn(const ZoomTarget& target, bool timed);
  void IngestBatch(bool timed);
  void AnnotateStatement(bool timed);
  void Archive(bool timed);
  void Checkpoint(bool timed);
  void CheckIdentity();
  void Reopen();
  void CheckSelect(Shape shape, const core::QueryResult& result);
  Expectation Expect(Shape shape) const;
  void RecordAdd(in::ann::AnnotationId id, const core::AnnotateSpec& spec);
  rel::Tuple BaseTuple(size_t row) const;
  bool Ok(const Status& status, const char* what);
  void CheckCacheBudget();
  std::map<std::string, double> LayerFigures();
  RunResult Finish();

  const RunConfig& config_;
  const Regime& regime_;
  std::vector<workload::BirdSpecies> species_;
  Record record_;
  Stream stream_;
  in::Random curation_rng_;
  Checks checks_;
  std::unique_ptr<Tracer> tracer_;
  HostSpeed host_;
  std::unique_ptr<core::SummaryInstance> labeler_;  // Stand-alone ClassBird1.
  IoCounters io_;
  std::unique_ptr<core::Engine> engine_;
  std::unique_ptr<sql::SqlSession> session_;
  std::vector<std::pair<rel::RowId, in::ann::Annotation>> written_;

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  size_t batches_ = 0;
  size_t statements_ = 0;  // ANNOTATE statements sent.
  size_t probed_selects_ = 0;  // Traced run: SELECTs with per-layer probes.
  bool probing_ = false;
  std::vector<ZoomTarget> newest_zoom_;  // Per query round.
  std::map<std::pair<core::QueryId, size_t>, std::vector<std::string>> zoom_answers_;
  std::map<core::QueryId, size_t> archived_before_;  // Archives preceding the result.

  // End-to-end samples (timed rounds only).
  double setup_s_ = 0.0;
  double setup_raw_s_ = 0.0;
  Samples setup_reference_;  // Reference-kernel timings spread over set-up.
  // Throughputs are interquartile means over windows, so that one stalled
  // operation moves them no more than it moves a latency: SELECTs per second
  // of the SELECT and zoom-in time in each query window of `query_every`
  // rounds (WAL syncs, whose latency is the host disk's, stay out of it),
  // and annotations per second over each checkpoint interval, its
  // checkpoint included. Times are at reference speed.
  double mix_ms_ = 0.0;  // Every timed operation.
  double window_query_ms_ = 0.0;
  uint64_t window_selects_ = 0;
  Samples queries_per_s_;
  double window_ingest_ms_ = 0.0;
  uint64_t window_ingested_ = 0;
  Samples annotations_per_s_;
  Samples shape_ms_[kNumShapes];
  Samples select_ms_;
  Samples zoom_hit_ms_;
  Samples zoom_miss_ms_;
  Samples annotate_ms_;
  Samples reopen_ms_;
  double disk_bytes_per_annotation_ = 0.0;

  // Per-layer figures (traced run).
  Samples plan_us_;
  Samples retain_ms_;
  std::map<std::string, double> exec_self_ms_;
  Samples checkpoint_ms_;
  Samples init_ms_, caller_replay_ms_, first_query_ms_, records_replayed_, indexes_adopted_;
  uint64_t zoom_hits_ = 0, zoom_reexecutions_ = 0, zoom_annotations_ = 0, zoom_count_ = 0;
  uint64_t timed_ops_ = 0;
  uint64_t pool_misses_ = 0;
  std::map<std::string, double> layers_;
};

core::EngineOptions SessionCycle::Options(bool open_existing) {
  core::EngineOptions options;
  options.db_path = (std::filesystem::path(config_.workdir) / "birds.db").string();
  options.buffer_pool_pages = regime_.pool_pages;
  options.cache_budget_bytes = regime_.cache_budget;
  options.open_existing = open_existing;
  options.recovery_threads = 1;  // The closed loop uses one core for replay.
  if (config_.trace) {
    options.disk = std::make_shared<CountingDisk>(&io_);
    options.index_disk = std::make_shared<CountingDisk>(&io_);
  }
  return options;
}

bool SessionCycle::Ok(const Status& status, const char* what) {
  if (status.ok()) return true;
  if (failed_ < 5) std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
  ++failed_;
  return false;
}

Status SessionCycle::OpenEngine(bool open_existing) {
  engine_ = std::make_unique<core::Engine>(Options(open_existing));
  return engine_->Init();
}

Status SessionCycle::Replay() {
  workload::WorkloadConfig wc;
  wc.seed = kSpeciesSeed;
  wc.table_name = kTable;
  wc.num_species = regime_.species;
  workload::WorkloadBuilder builder(wc);
  return builder.BuildBase(engine_.get()).status();
}

Status SessionCycle::OpenSession() {
  sql::PlannerOptions options;
  options.morsel_size = regime_.morsel_size;
  session_ = std::make_unique<sql::SqlSession>(engine_.get(), options);
  INSIGHTNOTES_RETURN_IF_ERROR(
      session_->Execute("SET PARALLELISM = " + std::to_string(regime_.parallelism))
          .status());
  return session_->Execute(regime_.optimizer ? "SET OPTIMIZER = ON" : "SET OPTIMIZER = OFF")
      .status();
}

Status SessionCycle::Setup() {
  labeler_ = std::move(MakeInstances().front());
  INSIGHTNOTES_RETURN_IF_ERROR(OpenEngine(false));
  INSIGHTNOTES_RETURN_IF_ERROR(Replay());
  INSIGHTNOTES_RETURN_IF_ERROR(engine_->CreateIndex(kTable, "id"));
  size_t remaining = regime_.species * regime_.base_per_tuple;
  while (remaining > 0) {
    size_t n = std::min(remaining, kLoadBatch);
    std::vector<StreamItem> items;
    std::vector<core::AnnotateSpec> specs;
    for (size_t i = 0; i < n; ++i) {
      items.push_back(stream_.Next());
      specs.push_back(items.back().spec);
    }
    INSIGHTNOTES_ASSIGN_OR_RETURN(auto ids, engine_->AnnotateBatch(specs));
    for (size_t i = 0; i < n; ++i) {
      RecordAdd(ids[i], specs[i]);
      if (items[i].shared_row.has_value()) {
        INSIGHTNOTES_RETURN_IF_ERROR(engine_->AttachAnnotation(
            ids[i], kTable, *items[i].shared_row, specs[i].columns));
        record_.Attach(ids[i], *items[i].shared_row, specs[i].columns);
      }
    }
    remaining -= n;
    setup_reference_.Add(host_.ReferenceMs());
  }
  INSIGHTNOTES_RETURN_IF_ERROR(engine_->Checkpoint());
  return OpenSession();
}

void SessionCycle::RecordAdd(in::ann::AnnotationId id, const core::AnnotateSpec& spec) {
  Record::Note note;
  note.row = spec.row;
  note.columns = spec.columns;
  note.body = spec.body;
  note.label1 = labeler_->classifier()->Classify(spec.body);
  record_.Add(id, std::move(note));
  in::ann::Annotation a;
  a.id = id;
  a.kind = spec.kind;
  a.author = spec.author;
  a.title = spec.title;
  a.body = spec.body;
  written_.emplace_back(spec.row, std::move(a));
}

rel::Tuple SessionCycle::BaseTuple(size_t row) const {
  const workload::BirdSpecies& s = species_[row];
  return rel::Tuple({rel::Value(static_cast<int64_t>(row)), rel::Value(s.common_name),
                     rel::Value(s.scientific_name), rel::Value(s.family),
                     rel::Value(s.region), rel::Value(s.weight_kg),
                     rel::Value(s.population_estimate)});
}

Expectation SessionCycle::Expect(Shape shape) const {
  Expectation e;
  auto add = [&](const rel::Tuple& tuple, std::vector<uint64_t> ids) {
    std::string key = tuple.ToString();
    e.rows.push_back(key);
    e.ids[key] = std::move(ids);
  };
  const size_t n = species_.size();
  switch (shape) {
    case kCarry:
    case kTrim:
      for (size_t i = 0; i < n; ++i) {
        if (!(species_[i].weight_kg > 1.0)) continue;
        rel::Tuple base = BaseTuple(i);
        if (shape == kCarry) {
          add(base, record_.Expected(i, {}));
        } else {
          add(rel::Tuple({base.values()[0], base.values()[1], base.values()[5]}),
              record_.Expected(i, {0, 1, 5}));
        }
      }
      break;
    case kJoin:
      for (size_t l = 0; l < n; ++l) {
        for (size_t r = 0; r < n; ++r) {
          if (species_[l].family != species_[r].family) continue;
          add(rel::Tuple::Concat(BaseTuple(l), BaseTuple(r)),
              Union(record_.Expected(l, {}), record_.Expected(r, {})));
          ++e.pairs[species_[l].family];
        }
      }
      break;
    case kGroup: {
      std::map<std::string, std::pair<int64_t, std::vector<uint64_t>>> groups;
      for (size_t i = 0; i < n; ++i) {
        auto& g = groups[species_[i].family];
        ++g.first;
        g.second = Union(std::move(g.second), record_.Expected(i, {kFamilyColumn}));
      }
      for (auto& [family, g] : groups) {
        add(rel::Tuple({rel::Value(family), rel::Value(g.first)}), std::move(g.second));
      }
      break;
    }
    case kFilter:
      for (size_t i = 0; i < n; ++i) {
        std::vector<uint64_t> ids = record_.Expected(i, {0, 1});
        size_t disease = 0;
        for (uint64_t id : ids) {
          if (record_.Find(id)->label1 == kDiseaseLabel) ++disease;
        }
        if (disease < 3) continue;
        rel::Tuple base = BaseTuple(i);
        add(rel::Tuple({base.values()[0], base.values()[1]}), std::move(ids));
      }
      break;
    case kNumShapes:
      break;
  }
  std::sort(e.rows.begin(), e.rows.end());
  return e;
}

void SessionCycle::CheckSelect(Shape shape, const core::QueryResult& result) {
  Expectation want = Expect(shape);
  Expectation got;
  uint64_t archived_found = 0;
  const std::vector<uint64_t>& archived = record_.archived();
  for (const core::AnnotatedTuple& row : result.rows) {
    std::string key = row.tuple.ToString();
    got.rows.push_back(key);
    std::vector<uint64_t> ids = ClassBird1Ids(row);
    for (uint64_t id : archived) {
      if (std::binary_search(ids.begin(), ids.end(), id)) ++archived_found;
    }
    got.ids[key] = std::move(ids);
    if (shape == kJoin) ++got.pairs[row.tuple.values()[kFamilyColumn].AsString()];
  }
  std::sort(got.rows.begin(), got.rows.end());
  const std::string name = kShapes[shape].name;
  checks_.Expect("propagate.rows." + name, want.rows, got.rows);
  checks_.Expect("propagate.ids." + name, want.ids, got.ids);
  if (shape == kJoin) checks_.Expect("propagate.join.pairs_per_family", want.pairs, got.pairs);
  checks_.Expect("curate.archived_absent", 0, archived_found);
}

void SessionCycle::CheckCacheBudget() {
  checks_.Expect("curate.cache_within_budget", 1,
                 engine_->cache()->stats().bytes_used <= regime_.cache_budget ? 1 : 0);
}

SessionCycle::ZoomTarget SessionCycle::Select(Shape shape, bool timed) {
  ++attempted_;
  ScopedSpan span(tracer_.get(), "sql.select");
  std::unique_ptr<exec::Operator> probe_plan;
  double plan_ms = 0.0;
  if (probing_) {
    ScopedSpan plan_span(tracer_.get(), "sql.parse_plan");
    Clock::time_point t0 = Clock::now();
    Result<std::unique_ptr<exec::Operator>> plan =
        Plan(engine_.get(), kShapes[shape].sql, regime_.parallelism, regime_.optimizer,
             regime_.morsel_size);
    plan_ms = MsBetween(t0, Clock::now());
    if (plan.ok()) probe_plan = std::move(*plan);
    plan_us_.Add(plan_ms * 1e3);
  }
  Result<sql::ExecutionOutput> out = Status::Internal("not run");
  HostSpeed::Timing t = host_.Measure([&] { out = session_->Execute(kShapes[shape].sql); });
  if (!Ok(out.status(), kShapes[shape].name)) return {};
  if (timed) {
    shape_ms_[shape].Add(t.ms);
    select_ms_.Add(t.ms);
    mix_ms_ += t.ms;
    window_query_ms_ += t.ms;
    ++window_selects_;
  }
  archived_before_[out->result.qid] = record_.archived().size();
  if (probing_ && probe_plan != nullptr) {
    // Layer split of this SELECT: the operator tree's self times, and the
    // cost of retaining the result (session time minus parse/plan minus the
    // same plan executed without retain).
    {
      ScopedSpan exec_span(tracer_.get(), "exec.drain");
      probe_plan->SetMetricsEnabled(true);
      if (Drain(engine_.get(), probe_plan.get()).ok()) {
        AddSelfTimes(exec::CollectPlanMetrics(probe_plan.get()), &exec_self_ms_);
        ++probed_selects_;
      }
      (void)probe_plan->Close();
    }
    Result<std::unique_ptr<exec::Operator>> plan =
        Plan(engine_.get(), kShapes[shape].sql, regime_.parallelism, regime_.optimizer,
             regime_.morsel_size);
    if (plan.ok()) {
      ScopedSpan exec_span(tracer_.get(), "core.execute_no_retain");
      core::ExecuteOptions options;
      options.retain = false;
      Clock::time_point e0 = Clock::now();
      Result<core::QueryResult> bare = engine_->Execute(std::move(*plan), options);
      double bare_ms = MsBetween(e0, Clock::now());
      if (bare.ok()) retain_ms_.Add(t.raw_ms - plan_ms - bare_ms);
    }
  }
  CheckSelect(shape, out->result);
  CheckCacheBudget();
  return ZoomTarget{out->result.qid, 1};
}

void SessionCycle::ZoomIn(const ZoomTarget& target, bool timed) {
  ++attempted_;
  ScopedSpan span(tracer_.get(), "core.zoomin");
  std::string text = "ZOOMIN REFERENCE QID " + std::to_string(target.qid) +
                     " ON ClassBird1 INDEX " + std::to_string(target.component);
  Result<sql::ExecutionOutput> out = Status::Internal("not run");
  HostSpeed::Timing t = host_.Measure([&] { out = session_->Execute(text); });
  if (!Ok(out.status(), "zoomin")) return;
  const core::ZoomInResult& zoom = out->zoom;
  if (timed) {
    (zoom.served_from_cache ? zoom_hit_ms_ : zoom_miss_ms_).Add(t.ms);
    mix_ms_ += t.ms;
    window_query_ms_ += t.ms;
    ++(zoom.served_from_cache ? zoom_hits_ : zoom_reexecutions_);
    ++zoom_count_;
  }
  std::vector<std::string> want_bodies, got_bodies, answer;
  uint64_t archived_found = 0;
  auto before = archived_before_.find(target.qid);
  size_t archived_limit = before == archived_before_.end() ? 0 : before->second;
  const std::vector<uint64_t>& archived = record_.archived();
  for (const core::ZoomInRowResult& row : zoom.rows) {
    std::string line = std::to_string(row.row_index) + ":";
    for (const in::ann::Annotation& a : row.annotations) {
      const Record::Note* note = record_.Find(a.id);
      want_bodies.push_back(note != nullptr ? note->body : "<not in record>");
      got_bodies.push_back(a.body);
      line += std::to_string(a.id) + ",";
      if (std::find(archived.begin(), archived.begin() + archived_limit, a.id) !=
          archived.begin() + archived_limit) {
        ++archived_found;
      }
    }
    if (timed) zoom_annotations_ += row.annotations.size();
    answer.push_back(std::move(line));
  }
  checks_.Expect("curate.zoomin_bodies", want_bodies, got_bodies);
  checks_.Expect("curate.archived_absent", 0, archived_found);
  auto [it, inserted] = zoom_answers_.try_emplace({target.qid, target.component}, answer);
  if (!inserted) checks_.Expect("curate.zoomin_cache_vs_reexecution", it->second, answer);
  CheckCacheBudget();
}

void SessionCycle::Checkpoint(bool timed) {
  ++attempted_;
  ScopedSpan span(tracer_.get(), "core.checkpoint");
  Status status;
  HostSpeed::Timing t = host_.MeasureSynced([&] { status = engine_->Checkpoint(); });
  if (!Ok(status, "checkpoint")) return;
  if (timed) {
    mix_ms_ += t.ms;
    checkpoint_ms_.Add(t.raw_ms);
    window_ingest_ms_ += t.ms;
    annotations_per_s_.Add(window_ingested_ / (window_ingest_ms_ / 1e3));
  }
  window_ingest_ms_ = 0.0;
  window_ingested_ = 0;
}

void SessionCycle::IngestBatch(bool timed) {
  ++attempted_;
  std::vector<StreamItem> items;
  std::vector<core::AnnotateSpec> specs;
  for (size_t i = 0; i < regime_.batch_size; ++i) {
    items.push_back(stream_.Next());
    specs.push_back(items.back().spec);
  }
  ScopedSpan span(tracer_.get(), "core.annotate_batch");
  Result<std::vector<in::ann::AnnotationId>> ids = Status::Internal("not run");
  std::vector<Status> attached(items.size());
  HostSpeed::Timing t = host_.MeasureSynced([&] {
    ids = engine_->AnnotateBatch(specs);
    if (!ids.ok()) return;
    for (size_t i = 0; i < items.size(); ++i) {
      if (items[i].shared_row.has_value()) {
        attached[i] = engine_->AttachAnnotation((*ids)[i], kTable, *items[i].shared_row,
                                                specs[i].columns);
      }
    }
  });
  if (!Ok(ids.status(), "annotate batch")) return;
  for (size_t i = 0; i < items.size(); ++i) {
    RecordAdd((*ids)[i], specs[i]);
    if (items[i].shared_row.has_value() && Ok(attached[i], "attach")) {
      record_.Attach((*ids)[i], *items[i].shared_row, specs[i].columns);
    }
  }
  if (timed) {
    mix_ms_ += t.ms;
    window_ingest_ms_ += t.ms;
    window_ingested_ += specs.size();
  }
  if (++batches_ % regime_.checkpoint_every == 0) Checkpoint(timed);
}

void SessionCycle::AnnotateStatement(bool timed) {
  ++attempted_;
  // Statements go round-robin over the rows: an ANNOTATE's cost grows with
  // its row's annotations, so annotate_ms samples the same rows at the same
  // points of the run for every seed.
  StreamItem item = stream_.NextOn(statements_++ % species_.size());
  const core::AnnotateSpec& spec = item.spec;
  std::string text = "ANNOTATE birds ROW " + std::to_string(spec.row);
  if (!spec.columns.empty()) {
    text += std::string(" COLUMNS (") + kColumnNames[spec.columns[0]] + ")";
  }
  text += " TEXT " + SqlQuote(spec.body) + " AUTHOR " + SqlQuote(spec.author);
  if (spec.kind == in::ann::AnnotationKind::kDocument) {
    text += " AS DOCUMENT TITLE " + SqlQuote(spec.title);
  }
  ScopedSpan span(tracer_.get(), "sql.annotate");
  Result<sql::ExecutionOutput> out = Status::Internal("not run");
  HostSpeed::Timing t = host_.MeasureSynced([&] { out = session_->Execute(text); });
  if (!Ok(out.status(), "ANNOTATE")) return;
  // "annotation <id> added to ..."
  const std::string& message = out->message;
  size_t start = message.find(' ');
  in::ann::AnnotationId id = std::stoull(message.substr(start + 1));
  RecordAdd(id, spec);
  if (timed) {
    annotate_ms_.Add(t.ms);
    mix_ms_ += t.ms;
    window_ingest_ms_ += t.ms;
    ++window_ingested_;
  }
}

void SessionCycle::Archive(bool timed) {
  ++attempted_;
  std::vector<uint64_t> live = record_.LiveIds();
  uint64_t id = live[curation_rng_.Uniform(live.size())];
  ScopedSpan span(tracer_.get(), "core.archive");
  Status status;
  HostSpeed::Timing t = host_.MeasureSynced([&] { status = engine_->ArchiveAnnotation(id); });
  if (!Ok(status, "archive")) return;
  record_.Archive(id);
  if (timed) mix_ms_ += t.ms;
}

void SessionCycle::Round(size_t round, bool timed) {
  ScopedSpan span(tracer_.get(), "round");
  if (round % regime_.query_every == 0) {
    const size_t query_round = newest_zoom_.size();
    ZoomTarget newest;
    for (size_t k = 0; k < kNumShapes; ++k) {
      newest = Select(static_cast<Shape>((query_round + k) % kNumShapes), timed);
    }
    newest.component = 1 + query_round % 4;
    newest_zoom_.push_back(newest);
    if (newest.qid != 0) ZoomIn(newest, timed);
    if (query_round >= regime_.zoom_lag) {
      const ZoomTarget& older = newest_zoom_[query_round - regime_.zoom_lag];
      if (older.qid != 0) ZoomIn(older, timed);
    }
  }
  for (size_t b = 0; b < regime_.batches_per_round; ++b) IngestBatch(timed);
  for (size_t s = 0; s < regime_.statements_per_round; ++s) AnnotateStatement(timed);
  if ((round + 1) % regime_.archive_every == 0) Archive(timed);
}

void SessionCycle::CheckIdentity() {
  // Theorems 1-2: every shape's result is byte-identical at parallelism 1
  // and 2 (serial and morsel-parallel plan trees).
  for (size_t s = 0; s < kNumShapes; ++s) {
    std::string bytes[2];
    for (size_t p = 1; p <= 2; ++p) {
      ++attempted_;
      Result<std::unique_ptr<exec::Operator>> plan =
          Plan(engine_.get(), kShapes[s].sql, p, /*optimize=*/false, kIdentityMorselSize);
      if (!Ok(plan.status(), "plan")) continue;
      core::ExecuteOptions options;
      options.retain = false;
      Result<core::QueryResult> result = engine_->Execute(std::move(*plan), options);
      if (!Ok(result.status(), "identity execute")) continue;
      Result<core::ResultSnapshot> snapshot =
          core::ResultSnapshot::Capture(result->schema, result->rows);
      if (!Ok(snapshot.status(), "capture")) continue;
      snapshot->Serialize(&bytes[p - 1]);
    }
    checks_.Expect(std::string("propagate.p1_p2_identical.") + kShapes[s].name, bytes[0],
                   bytes[1]);
  }
}

void SessionCycle::Reopen() {
  ++attempted_;
  ScopedSpan span(tracer_.get(), "core.reopen");
  rel::RowId probe = curation_rng_.Uniform(species_.size());
  Result<sql::ExecutionOutput> out = Status::Internal("not run");
  Status status;
  Clock::time_point t1, t2, t3, t4;
  HostSpeed::Timing t = host_.Measure([&] {
    session_.reset();
    engine_.reset();  // Close: the destructor checkpoints.
    t1 = Clock::now();
    status = OpenEngine(true);
    t2 = Clock::now();
    if (status.ok()) status = Replay();
    t3 = Clock::now();
    if (!status.ok()) return;
    // The first query, planned by the optimizer so that it probes the
    // adopted index.
    sql::SqlSession first(engine_.get());
    status = first.Execute("SET PARALLELISM = 1").status();
    if (!status.ok()) return;
    out = first.Execute("SELECT b.id, b.name FROM birds b WHERE b.id = " +
                        std::to_string(probe));
    status = out.status();
    t4 = Clock::now();
  }, HostSpeed::kLongReferenceRuns);
  if (status.ok()) status = OpenSession();
  if (!Ok(status, "reopen")) return;
  reopen_ms_.Add(t.ms);
  init_ms_.Add(MsBetween(t1, t2));
  caller_replay_ms_.Add(MsBetween(t2, t3));
  first_query_ms_.Add(MsBetween(t3, t4));
  const core::RecoveryReport& report = engine_->recovery();
  records_replayed_.Add(static_cast<double>(report.wal_records_replayed));
  indexes_adopted_.Add(static_cast<double>(report.indexes_recovered));

  checks_.Expect("ingest.records_replayed", record_.mutations(), report.wal_records_replayed);
  std::vector<std::string> want_counts, got_counts;
  Result<rel::Table*> table = engine_->catalog()->GetTable(kTable);
  if (Ok(table.status(), "table")) {
    for (size_t r = 0; r < species_.size(); ++r) {
      want_counts.push_back(std::to_string(record_.AttachmentsOn(r)));
      got_counts.push_back(
          std::to_string(engine_->annotations()->OnRow((*table)->id(), r).size()));
    }
  }
  checks_.Expect("ingest.row_annotation_counts", want_counts, got_counts);
  std::vector<std::string> want_probe = {
      rel::Tuple({BaseTuple(probe).values()[0], BaseTuple(probe).values()[1]}).ToString()};
  std::vector<std::string> got_probe;
  for (const core::AnnotatedTuple& row : out->result.rows) {
    got_probe.push_back(row.tuple.ToString());
  }
  checks_.Expect("ingest.index_probe", want_probe, got_probe);
}

std::map<std::string, double> SessionCycle::LayerFigures() {
  std::map<std::string, double> m = layers_;
  m["sql.plan_us"] = plan_us_.Median();
  for (const auto& [kind, ms] : exec_self_ms_) {
    m["exec." + kind + ".self_ms"] = probed_selects_ > 0 ? ms / probed_selects_ : 0.0;
  }
  m["core.retain_ms"] = retain_ms_.Median();
  m["core.checkpoint_ms"] = checkpoint_ms_.Median();
  m["core.recovery.init_ms"] = init_ms_.Median();
  m["core.recovery.caller_replay_ms"] = caller_replay_ms_.Median();
  m["core.recovery.first_query_ms"] = first_query_ms_.Median();
  m["core.recovery.records_replayed"] = records_replayed_.Median();
  m["core.recovery.indexes_adopted"] = indexes_adopted_.Median();
  m["core.cache.hits"] = static_cast<double>(zoom_hits_);
  m["core.cache.reexecutions"] = static_cast<double>(zoom_reexecutions_);
  m["core.zoomin_annotations"] =
      zoom_count_ > 0 ? static_cast<double>(zoom_annotations_) / zoom_count_ : 0.0;
  m["storage.pool_misses"] =
      timed_ops_ > 0 ? static_cast<double>(pool_misses_) / timed_ops_ : 0.0;
  return m;
}

Result<RunResult> SessionCycle::Run() {
  setup_reference_.Add(host_.ReferenceMs());
  // Outside the database directory, whose size disk_bytes_per_annotation is.
  const std::filesystem::path reference_dir =
      std::filesystem::path(config_.workdir) / "reference";
  std::error_code made;
  std::filesystem::create_directory(reference_dir, made);
  if (made) return Status::IoError("cannot create " + reference_dir.string());
  INSIGHTNOTES_RETURN_IF_ERROR(host_.OpenSyncReference(reference_dir.string()));
  INSIGHTNOTES_RETURN_IF_ERROR(Setup());
  const size_t timed_rounds = std::max<size_t>(
      1, static_cast<size_t>(regime_.rounds_per_second * config_.seconds + 0.5));
  size_t round = 0;
  for (; round < kWarmupRounds; ++round) {
    Round(round, false);
    setup_reference_.Add(host_.ReferenceMs());
  }

  setup_raw_s_ = std::chrono::duration<double>(Clock::now() - config_.process_start).count();
  setup_s_ = setup_raw_s_ * HostSpeed::kNominalMs / setup_reference_.Median();
  const uint64_t epoch0 = engine_->CurrentEpoch();
  const uint64_t wal0 = engine_->wal()->num_appended();
  const core::CacheStats cache0 = engine_->cache()->stats();
  const uint64_t reads0 = io_.reads, writes0 = io_.writes, fsyncs0 = io_.fsyncs;
  const uint64_t io_ns0 = io_.io_ns;
  const uint64_t attempted0 = attempted_;
  const uint64_t misses0 = engine_->buffer_pool()->misses();
  for (size_t i = 0; i < timed_rounds; ++i, ++round) {
    probing_ = tracer_ != nullptr && i < kProbedRounds;
    Round(round, true);
    if ((round + 1) % regime_.query_every != 0) continue;
    if (window_selects_ == kNumShapes) {
      queries_per_s_.Add(window_selects_ / (window_query_ms_ / 1e3));
    }
    window_query_ms_ = 0.0;
    window_selects_ = 0;
  }
  probing_ = false;
  timed_ops_ = attempted_ - attempted0;
  pool_misses_ = engine_->buffer_pool()->misses() - misses0;
  layers_["core.epochs_published"] = static_cast<double>(engine_->CurrentEpoch() - epoch0);
  layers_["storage.wal_records"] =
      static_cast<double>(engine_->wal()->num_appended() - wal0);
  layers_["storage.page_reads"] = static_cast<double>(io_.reads - reads0);
  layers_["storage.page_writes"] = static_cast<double>(io_.writes - writes0);
  layers_["storage.fsyncs"] = static_cast<double>(io_.fsyncs - fsyncs0);
  layers_["storage.io_ms"] = static_cast<double>(io_.io_ns - io_ns0) / 1e6;
  const core::CacheStats cache1 = engine_->cache()->stats();
  layers_["core.cache.evictions"] = static_cast<double>(cache1.evictions - cache0.evictions);
  layers_["core.cache.bytes_used"] = static_cast<double>(cache1.bytes_used);

  // Durable size after the final checkpoint and compaction pass.
  Checkpoint(false);
  engine_->WaitForWalCompaction();
  disk_bytes_per_annotation_ =
      static_cast<double>(DirectoryBytes(config_.workdir)) / written_.size();
  Result<uint64_t> wal_bytes = engine_->wal()->TotalBytes();
  layers_["storage.wal_bytes"] = wal_bytes.ok() ? static_cast<double>(*wal_bytes) : 0.0;
  core::WalCompactionStats compaction = engine_->wal_compaction();
  layers_["core.compaction.records_dropped"] = static_cast<double>(compaction.records_dropped);
  layers_["core.compaction.segments_retired"] =
      static_cast<double>(compaction.segments_retired);

  CheckIdentity();
  if (tracer_ != nullptr) {
    ScopedSpan span(tracer_.get(), "probe_layers");
    for (auto& [name, value] : ProbeLayers(engine_.get(), written_)) layers_[name] = value;
  }
  for (size_t c = 0; c < regime_.reopen_cycles; ++c) Reopen();
  session_.reset();
  engine_.reset();
  return Finish();
}

RunResult SessionCycle::Finish() {
  RunResult r;
  r.correct = checks_.all_passed();
  r.self_test_passed = checks_.self_test_passed();
  r.attempted = attempted_;
  r.failed = failed_;
  std::fprintf(stdout,
               "workload %s: %llu operations, %llu failed; timed operations %.3f s at "
               "reference speed; host speed factor %.3f (median); raw set-up %.3f s\n",
               regime_.name, static_cast<unsigned long long>(attempted_),
               static_cast<unsigned long long>(failed_), mix_ms_ / 1e3,
               host_.MedianFactor(), setup_raw_s_);
  checks_.Report(stdout);

  auto latency = [&](const char* name, const Samples& s) {
    std::fprintf(stdout, "%-26s %10.4f ms  interquartile mean of %zu, median %.4f ms", name,
                 s.InterquartileMean(), s.size(), s.Median());
    if (auto tail = s.Tail()) {
      std::fprintf(stdout, "  p%g %.4f ms", tail->first, tail->second);
    }
    std::fprintf(stdout, "\n");
    r.end_to_end.push_back({name, "ms", s.InterquartileMean()});
  };
  auto figure = [&](const char* name, const char* unit, double value) {
    std::fprintf(stdout, "%-26s %10.4f %s\n", name, value, unit);
    r.end_to_end.push_back({name, unit, value});
  };
  figure("setup_s", "s", setup_s_);
  figure("peak_rss_mb", "MB", PeakRssMb());
  latency("carry_ms", shape_ms_[kCarry]);
  latency("trim_ms", shape_ms_[kTrim]);
  latency("join_ms", shape_ms_[kJoin]);
  latency("group_ms", shape_ms_[kGroup]);
  figure("queries_per_s", "1/s", queries_per_s_.InterquartileMean());
  figure("annotations_per_s", "1/s", annotations_per_s_.InterquartileMean());
  latency("annotate_ms", annotate_ms_);
  latency("reopen_ms", reopen_ms_);
  figure("disk_bytes_per_annotation", "B", disk_bytes_per_annotation_);
  latency("select_ms", select_ms_);
  latency("zoomin_hit_ms", zoom_hit_ms_);
  latency("zoomin_miss_ms", zoom_miss_ms_);

  if (tracer_ != nullptr) {
    std::map<std::string, double> figures = LayerFigures();
    for (const auto& [name, unit] : PerLayerMetrics()) {
      auto it = figures.find(name);
      double value = it == figures.end() ? 0.0 : it->second;
      std::fprintf(stdout, "%-40s %14.4f %s\n", name.c_str(), value, unit.c_str());
      r.per_layer.push_back({name, unit, value});
    }
    Status written = tracer_->Write(config_.trace_path);
    if (!written.ok()) std::fprintf(stderr, "%s\n", written.ToString().c_str());
  }
  return r;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Regime& regime : kRegimes) names.push_back(regime.name);
  return names;
}

std::vector<std::unique_ptr<core::SummaryInstance>> MakeInstances() {
  std::vector<std::unique_ptr<core::SummaryInstance>> out;
  auto class1 = core::SummaryInstance::MakeClassifier(
      "ClassBird1", {"Behavior", "Disease", "Anatomy", "Other"});
  for (const auto& [label, text] : workload::AnnotationGenerator::ClassBird1Training()) {
    (void)class1->classifier()->Train(label, text);
  }
  out.push_back(std::move(class1));
  auto class2 = core::SummaryInstance::MakeClassifier(
      "ClassBird2", {"Provenance", "Comment", "Question"});
  for (const auto& [label, text] : workload::AnnotationGenerator::ClassBird2Training()) {
    (void)class2->classifier()->Train(label, text);
  }
  out.push_back(std::move(class2));
  out.push_back(core::SummaryInstance::MakeCluster("SimCluster", 0.35));
  in::mining::SnippetOptions snippet;
  snippet.max_sentences = 2;
  snippet.max_chars = 200;
  out.push_back(core::SummaryInstance::MakeSnippet("TextSummary1", snippet));
  return out;
}

Result<RunResult> RunWorkload(const RunConfig& config) {
  for (const Regime& regime : kRegimes) {
    if (config.workload == regime.name) {
      SessionCycle cycle(config, regime);
      return cycle.Run();
    }
  }
  return Status::InvalidArgument("unknown workload " + config.workload);
}

}  // namespace insightbench
