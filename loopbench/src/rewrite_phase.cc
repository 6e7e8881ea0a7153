#include <map>

#include "phases.h"
#include "tpch/tpch_gen.h"

namespace loopbench {

using namespace aggify;

namespace {

/// The catalog a unit is rewritten against: the corpus programs' small
/// shared schema, or the TPC-H schema (one row per table) for functions.
Result<std::unique_ptr<Database>> ScratchCatalog(const RewriteUnit& unit) {
  auto db = std::make_unique<Database>();
  if (!unit.corpus.empty()) {
    Session ddl(db.get());
    RETURN_NOT_OK(ddl.RunSql(CorpusSchemaSql()).status());
  } else {
    TpchConfig schema_only;
    schema_only.scale_factor = 1e-6;
    RETURN_NOT_OK(PopulateTpch(db.get(), schema_only));
  }
  return db;
}

}  // namespace

RewritePhase::RewritePhase(std::vector<RewriteUnit> units, Tally* tally,
                           Tracer* tracer)
    : units_(std::move(units)),
      tally_(tally),
      tracer_(tracer),
      trace_(tracer != nullptr ? std::make_unique<Tracer::Thread>(tracer)
                               : nullptr),
      ms_(units_.size()) {}

RewritePhase::~RewritePhase() = default;

Result<std::pair<double, int>> RewritePhase::Execute(size_t index,
                                                     AggifyReport* report) {
  const RewriteUnit& unit = units_[index];
  Tracer::Thread* t = trace_.get();
  int id = t != nullptr ? tracer_->UnitId(unit.label) : -1;
  uint64_t req = t != nullptr ? tracer_->NextRequest() : 0;
  ASSIGN_OR_RETURN(std::unique_ptr<Database> db, ScratchCatalog(unit));
  SpanScope root(t, "rewrite.unit", id, req);
  double seconds = 0;
  int rewritten = 0;
  if (!unit.corpus.empty()) {
    // An anonymous block, as AnalyzeCorpus rewrites it.
    Clock::time_point start = Clock::now();
    StmtPtr parsed;
    {
      SpanScope s(t, "parser.parse", id, req);
      ASSIGN_OR_RETURN(parsed, ParseStatements(unit.sql));
    }
    {
      SpanScope s(t, "aggify.rewrite", id, req);
      Aggify aggify(db.get());
      ASSIGN_OR_RETURN(*report, aggify.RewriteBlock(
                                    static_cast<BlockStmt*>(parsed.get())));
    }
    seconds = SecondsSince(start);
    rewritten = report->loops_rewritten;
  } else {
    // A CREATE FUNCTION script: parse, register (untimed), rewrite.
    Clock::time_point start = Clock::now();
    Script script;
    {
      SpanScope s(t, "parser.parse", id, req);
      ASSIGN_OR_RETURN(script, ParseScript(unit.sql));
    }
    seconds = SecondsSince(start);
    Session session(db.get());
    RETURN_NOT_OK(session.RunScript(script).status());
    start = Clock::now();
    {
      SpanScope s(t, "aggify.rewrite", id, req);
      Aggify aggify(db.get());
      for (const std::string& name : unit.functions) {
        ASSIGN_OR_RETURN(*report, aggify.RewriteFunction(name));
        rewritten += report->loops_rewritten;
      }
    }
    seconds += SecondsSince(start);
  }
  return std::make_pair(seconds * 1000.0, rewritten);
}

Status RewritePhase::Warmup(Counts* counts) {
  rewritten_.assign(units_.size(), 0);
  std::map<std::string, int> per_corpus;
  for (size_t i = 0; i < units_.size(); ++i) {
    AggifyReport report;
    ASSIGN_OR_RETURN(auto sample, Execute(i, &report));
    rewritten_[i] = sample.second;
    if (!units_[i].corpus.empty()) {
      per_corpus[units_[i].corpus] += sample.second;
    }
    tally_->Ok();
    (*counts)["aggify.loops_rewritten"] += report.loops_rewritten;
    for (const LoopRewrite& rw : report.rewrites) {
      (*counts)["aggify.lowered_to_builtin"] += rw.lowered_to_builtin;
      (*counts)["aggify.merge_synthesized"] += rw.merge_synthesized;
      (*counts)["aggify.parallel_eligible"] += rw.parallel_eligible;
      (*counts)["aggify.sort_elided"] += rw.sort_elided;
      const std::string at = "/" + units_[i].label;
      (*counts)["unit.lowered_to_builtin" + at] += rw.lowered_to_builtin;
      (*counts)["unit.merge_synthesized" + at] += rw.merge_synthesized;
      (*counts)["unit.parallel_eligible" + at] += rw.parallel_eligible;
    }
  }
  // Table 1: the corpora's Aggify-able loop counts.
  for (const auto& [corpus, n] : per_corpus) {
    if (n != ExpectedAggifyable(corpus)) {
      tally_->Fail(corpus + ": " + std::to_string(n) +
                   " Aggify-able loops, Table 1 has " +
                   std::to_string(ExpectedAggifyable(corpus)));
    }
  }
  return Status::OK();
}

void RewritePhase::RunFor(double seconds) {
  if (units_.empty()) return;
  Clock::time_point start = Clock::now();
  while (SecondsSince(start) < seconds) {
    AggifyReport report;
    auto sample = Execute(next_, &report);
    if (!sample.ok()) {
      tally_->Fail(units_[next_].label + ": " + sample.status().ToString());
    } else if (sample->second != rewritten_[next_]) {
      tally_->Fail(units_[next_].label + ": rewrote " +
                   std::to_string(sample->second) + " loops, warm-up rewrote " +
                   std::to_string(rewritten_[next_]));
    } else {
      tally_->Ok();
      ms_[next_].push_back(sample->first);
    }
    next_ = (next_ + 1) % units_.size();
  }
}

void RewritePhase::Report(MetricSet* out) const {
  std::vector<double> typical;
  for (const auto& samples : ms_) {
    if (!samples.empty()) typical.push_back(UnitStatistic(samples));
  }
  out->Set("rewrite_ms", Geomean(typical), "ms");
}

}  // namespace loopbench
