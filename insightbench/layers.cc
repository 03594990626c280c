// Per-layer probes of the traced run: the summary algebra, the raw
// propagation comparator and the summarizer kernels, each timed by calling
// the layer's public functions directly on the engine's final state.

#include <algorithm>
#include <map>
#include <string>

#include "core/raw_baseline.h"
#include "exec/aggregate.h"
#include "exec/filter.h"
#include "exec/hash_join.h"
#include "exec/projection.h"
#include "rel/expression.h"
#include "session_cycle.h"

namespace insightbench {
namespace {

using in::Result;
using in::Status;
namespace core = in::core;
namespace exec = in::exec;
namespace rel = in::rel;

constexpr size_t kReps = 5;

const char* TypeName(core::SummaryTypeKind kind) {
  switch (kind) {
    case core::SummaryTypeKind::kClassifier:
      return "classifier";
    case core::SummaryTypeKind::kCluster:
      return "cluster";
    case core::SummaryTypeKind::kSnippet:
      return "snippet";
  }
  return "other";
}

/// Mean microseconds per call, by summary type.
class PerType {
 public:
  void Add(core::SummaryTypeKind kind, Clock::time_point t0, Clock::time_point t1,
           size_t calls) {
    Tally& t = tallies_[TypeName(kind)];
    t.ms += MsBetween(t0, t1);
    t.calls += calls;
  }
  void Export(const std::string& prefix, std::map<std::string, double>* out) const {
    for (const char* type : {"classifier", "cluster", "snippet"}) {
      auto it = tallies_.find(type);
      (*out)[prefix + type] =
          it == tallies_.end() || it->second.calls == 0 ? 0.0
                                                        : it->second.ms * 1e3 / it->second.calls;
    }
  }

 private:
  struct Tally {
    double ms = 0.0;
    size_t calls = 0;
  };
  std::map<std::string, Tally> tallies_;
};

Result<std::vector<core::AnnotatedTuple>> Collect(std::unique_ptr<exec::Operator> plan) {
  INSIGHTNOTES_RETURN_IF_ERROR(plan->Open());
  std::vector<core::AnnotatedTuple> rows;
  core::AnnotatedTuple t;
  while (true) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(bool more, plan->Next(&t));
    if (!more) break;
    rows.push_back(std::move(t));
  }
  return rows;
}

/// The E2 shapes built by hand over MakeScan, with summaries on or off.
Result<std::unique_ptr<exec::Operator>> HandPlan(core::Engine* engine, const std::string& shape,
                                                 bool with_summaries) {
  if (shape == "join") {
    INSIGHTNOTES_ASSIGN_OR_RETURN(auto left, engine->MakeScan("birds", "l", with_summaries));
    INSIGHTNOTES_ASSIGN_OR_RETURN(auto right, engine->MakeScan("birds", "r", with_summaries));
    INSIGHTNOTES_ASSIGN_OR_RETURN(size_t lf, left->OutputSchema().IndexOf("l.family"));
    INSIGHTNOTES_ASSIGN_OR_RETURN(size_t rf, right->OutputSchema().IndexOf("r.family"));
    return std::unique_ptr<exec::Operator>(std::make_unique<exec::HashJoinOperator>(
        std::move(left), std::move(right), rel::MakeColumn(lf, "l.family"),
        rel::MakeColumn(rf, "r.family")));
  }
  INSIGHTNOTES_ASSIGN_OR_RETURN(auto scan, engine->MakeScan("birds", "b", with_summaries));
  if (shape == "group") {
    INSIGHTNOTES_ASSIGN_OR_RETURN(auto project,
                                  exec::ProjectOperator::FromColumns(std::move(scan), {"b.family"}));
    std::vector<rel::ExprPtr> keys;
    keys.push_back(rel::MakeColumn(0, "b.family"));
    std::vector<exec::AggregateItem> aggregates(1);
    aggregates[0].fn = exec::AggregateFunction::kCountStar;
    aggregates[0].output_name = "count";
    return std::unique_ptr<exec::Operator>(std::make_unique<exec::AggregateOperator>(
        std::move(project), std::move(keys),
        std::vector<rel::Column>{{"family", rel::ValueType::kString, "b"}},
        std::move(aggregates)));
  }
  INSIGHTNOTES_ASSIGN_OR_RETURN(size_t weight, scan->OutputSchema().IndexOf("b.weight"));
  auto filter = std::make_unique<exec::FilterOperator>(
      std::move(scan), rel::MakeCompare(rel::CompareOp::kGt, rel::MakeColumn(weight, "b.weight"),
                                        rel::MakeLiteral(rel::Value(1.0))));
  std::vector<std::string> columns =
      shape == "trim" ? std::vector<std::string>{"b.id", "b.name", "b.weight"}
                      : std::vector<std::string>{"b.id",     "b.name",   "b.sci_name",
                                                 "b.family", "b.region", "b.weight",
                                                 "b.population"};
  INSIGHTNOTES_ASSIGN_OR_RETURN(auto project,
                                exec::ProjectOperator::FromColumns(std::move(filter), columns));
  return std::unique_ptr<exec::Operator>(std::move(project));
}

/// Median wall time of `fn` over kReps calls.
template <typename Fn>
double MedianMs(Fn fn) {
  Samples samples;
  for (size_t i = 0; i < kReps; ++i) {
    Clock::time_point t0 = Clock::now();
    fn();
    samples.Add(MsBetween(t0, Clock::now()));
  }
  return samples.Median();
}

}  // namespace

std::vector<std::pair<std::string, std::string>> PerLayerMetrics() {
  return {
      {"sql.plan_us", "us"},
      {"exec.seqscan.self_ms", "ms"},
      {"exec.morselscan.self_ms", "ms"},
      {"exec.indexscan.self_ms", "ms"},
      {"exec.filter.self_ms", "ms"},
      {"exec.project.self_ms", "ms"},
      {"exec.hashjoin.self_ms", "ms"},
      {"exec.hashjoinprobe.self_ms", "ms"},
      {"exec.aggregate.self_ms", "ms"},
      {"exec.summaryfilter.self_ms", "ms"},
      {"exec.gather.self_ms", "ms"},
      {"exec.partialaggregate.self_ms", "ms"},
      {"exec.aggregatemerge.self_ms", "ms"},
      {"core.summary_ms.carry", "ms"},
      {"core.summary_ms.trim", "ms"},
      {"core.summary_ms.join", "ms"},
      {"core.summary_ms.group", "ms"},
      {"core.merge_us.classifier", "us"},
      {"core.merge_us.cluster", "us"},
      {"core.merge_us.snippet", "us"},
      {"core.remove_us.classifier", "us"},
      {"core.remove_us.cluster", "us"},
      {"core.remove_us.snippet", "us"},
      {"core.retain_ms", "ms"},
      {"core.raw_ms.trim", "ms"},
      {"core.raw_ms.join", "ms"},
      {"mining.add_us.classifier", "us"},
      {"mining.add_us.cluster", "us"},
      {"mining.add_us.snippet", "us"},
      {"storage.page_reads", "count"},
      {"storage.page_writes", "count"},
      {"storage.fsyncs", "count"},
      {"storage.io_ms", "ms"},
      {"storage.pool_misses", "count"},
      {"storage.wal_records", "count"},
      {"storage.wal_bytes", "B"},
      {"core.checkpoint_ms", "ms"},
      {"core.compaction.records_dropped", "count"},
      {"core.compaction.segments_retired", "count"},
      {"core.epochs_published", "count"},
      {"core.recovery.init_ms", "ms"},
      {"core.recovery.caller_replay_ms", "ms"},
      {"core.recovery.first_query_ms", "ms"},
      {"core.recovery.records_replayed", "count"},
      {"core.recovery.indexes_adopted", "count"},
      {"core.cache.hits", "count"},
      {"core.cache.reexecutions", "count"},
      {"core.cache.evictions", "count"},
      {"core.cache.bytes_used", "B"},
      {"core.zoomin_annotations", "count"},
  };
}

std::map<std::string, double> ProbeLayers(
    core::Engine* engine, const std::vector<std::pair<rel::RowId, in::ann::Annotation>>& stream) {
  std::map<std::string, double> out;

  // Summary propagation cost of each E2 shape: summaries on minus off.
  for (const char* shape : {"carry", "trim", "join", "group"}) {
    double ms[2];
    for (bool with : {false, true}) {
      ms[with] = MedianMs([&] {
        Result<std::unique_ptr<exec::Operator>> plan = HandPlan(engine, shape, with);
        if (plan.ok()) (void)Collect(std::move(*plan));
      });
    }
    out[std::string("core.summary_ms.") + shape] = ms[1] - ms[0];
  }

  // The raw-propagation comparator on the trim and join shapes.
  Result<rel::Table*> table = engine->catalog()->GetTable("birds");
  if (table.ok()) {
    core::RawPropagationEngine raw(engine->annotations());
    auto weight_gt = rel::MakeCompare(rel::CompareOp::kGt, rel::MakeColumn(5, "weight"),
                                      rel::MakeLiteral(rel::Value(1.0)));
    auto family = rel::MakeColumn(3, "family");
    out["core.raw_ms.trim"] = MedianMs([&] {
      auto scanned = raw.Scan(**table);
      if (!scanned.ok()) return;
      auto filtered = raw.Filter(std::move(*scanned), *weight_gt);
      if (filtered.ok()) (void)raw.Project(*filtered, {0, 1, 5});
    });
    out["core.raw_ms.join"] = MedianMs([&] {
      auto left = raw.Scan(**table);
      auto right = raw.Scan(**table);
      if (left.ok() && right.ok()) (void)raw.Join(*left, *right, *family, *family);
    });
  }

  // Merge and elimination kernels on clones of the scanned rows' objects.
  Result<std::unique_ptr<exec::Operator>> full_scan = engine->MakeScan("birds", "b", true);
  Result<std::vector<core::AnnotatedTuple>> full =
      full_scan.ok() ? Collect(std::move(*full_scan))
                     : Result<std::vector<core::AnnotatedTuple>>(full_scan.status());
  if (full.ok()) {
    PerType merge, remove;
    auto family_of = [](const core::AnnotatedTuple& t) {
      return t.tuple.values()[3].AsString();
    };
    // Join: every same-family pair, as the self-join merges them.
    for (const core::AnnotatedTuple& l : *full) {
      for (const core::AnnotatedTuple& r : *full) {
        if (family_of(l) != family_of(r)) continue;
        for (const auto& object : l.summaries) {
          core::SummaryObject* other = r.FindSummary(object->instance_name());
          if (other == nullptr) continue;
          std::unique_ptr<core::SummaryObject> clone = object->Clone();
          Clock::time_point t0 = Clock::now();
          (void)clone->MergeWith(*other);
          merge.Add(object->type(), t0, Clock::now(), 1);
        }
      }
    }
    // Group: each family folded in scan order, on family-trimmed objects.
    Result<std::unique_ptr<exec::Operator>> scan = engine->MakeScan("birds", "b", true);
    if (scan.ok()) {
      auto project = exec::ProjectOperator::FromColumns(std::move(*scan), {"b.family"});
      if (project.ok()) {
        Result<std::vector<core::AnnotatedTuple>> trimmed = Collect(std::move(*project));
        std::map<std::string, std::vector<std::unique_ptr<core::SummaryObject>>> groups;
        if (trimmed.ok()) {
          for (const core::AnnotatedTuple& t : *trimmed) {
            auto& acc = groups[t.tuple.values()[0].AsString()];
            if (acc.empty()) {
              for (const auto& object : t.summaries) acc.push_back(object->Clone());
              continue;
            }
            for (auto& object : acc) {
              core::SummaryObject* other = t.FindSummary(object->instance_name());
              if (other == nullptr) continue;
              Clock::time_point t0 = Clock::now();
              (void)object->MergeWith(*other);
              merge.Add(object->type(), t0, Clock::now(), 1);
            }
          }
        }
      }
    }
    // Trim to (id, name, weight): remove every annotation covering only
    // dropped columns.
    const std::vector<size_t> kept = {0, 1, 5};
    for (const core::AnnotatedTuple& t : *full) {
      std::vector<in::ann::AnnotationId> dropped;
      for (const core::AttachmentInfo& a : t.attachments) {
        if (a.columns.empty()) continue;
        bool survives = std::any_of(a.columns.begin(), a.columns.end(), [&](size_t c) {
          return std::find(kept.begin(), kept.end(), c) != kept.end();
        });
        if (!survives) dropped.push_back(a.id);
      }
      if (dropped.empty()) continue;
      for (const auto& object : t.summaries) {
        std::unique_ptr<core::SummaryObject> clone = object->Clone();
        Clock::time_point t0 = Clock::now();
        for (in::ann::AnnotationId id : dropped) (void)clone->RemoveAnnotation(id);
        remove.Add(object->type(), t0, Clock::now(), dropped.size());
      }
    }
    merge.Export("core.merge_us.", &out);
    remove.Export("core.remove_us.", &out);
  }

  // Summarizer kernels: stand-alone instances fed the same stream, one
  // object per row.
  PerType add;
  std::vector<std::unique_ptr<core::SummaryInstance>> instances = MakeInstances();
  std::vector<std::map<rel::RowId, std::unique_ptr<core::SummaryObject>>> objects(
      instances.size());
  for (const auto& [row, note] : stream) {
    for (size_t i = 0; i < instances.size(); ++i) {
      std::unique_ptr<core::SummaryObject>& object = objects[i][row];
      if (object == nullptr) object = instances[i]->NewObject();
      Clock::time_point t0 = Clock::now();
      (void)object->AddAnnotation(note);
      add.Add(instances[i]->type(), t0, Clock::now(), 1);
    }
  }
  add.Export("mining.add_us.", &out);
  return out;
}

}  // namespace insightbench
