// The benchmark's inputs: the four workloads and the units each one times.
//
// Every workload runs the same three phases over its own inputs — cursor
// loops under four execution modes, parse + rewrite of loop programs, and a
// closed-loop server session mix — and differs in its data scale, its units
// and the share of the run each phase gets. The phase a workload is named
// for gets most of the time; the others run a smaller slice of the same
// workload's inputs so that every end-to-end metric is reported everywhere
// (the prediction for a slice is "flat"; see README.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "tpch/tpch_gen.h"
#include "workloads/harness.h"

namespace loopbench {

/// The four execution modes of a cursor-loop unit. The first three are the
/// paper's Original / Aggify / Aggify+; the fourth is Aggify at DOP 2.
enum class Mode { kOriginal, kAggify, kAggifyPlus, kAggifyDop2 };
inline constexpr Mode kAllModes[] = {Mode::kOriginal, Mode::kAggify,
                                     Mode::kAggifyPlus, Mode::kAggifyDop2};

/// The end-to-end metric a mode's timings feed ("original_ms", ...).
const char* ModeMetric(Mode mode);
/// Short label used in spans and messages ("original", ...).
const char* ModeLabel(Mode mode);

/// One cursor-loop workload unit plus the arguments of one representative
/// invocation of its first UDF (used by the traced layer probes).
struct LoopUnit {
  aggify::WorkloadQuery query;
  std::vector<aggify::Value> probe_args;
};

/// One program the rewrite phase parses and rewrites.
struct RewriteUnit {
  std::string label;
  /// Corpus name for an anonymous block; empty for a function script.
  std::string corpus;
  /// CREATE FUNCTION script, or the text of an anonymous block.
  std::string sql;
  /// Functions to rewrite (function scripts only).
  std::vector<std::string> functions;
};

enum class LoopSet { kTpchQueries, kLineitemFamilies, kServedCalls };

struct WorkloadSpec {
  std::string name;
  double scale_factor;
  LoopSet loops;
  /// Rewrite units are the 184 applicability-corpus programs instead of the
  /// loop units' UDFs.
  bool corpus_rewrites;
  double loop_share;
  double rewrite_share;
  double server_share;
};

/// The workload named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// TPC-H generator settings for a workload and seed.
aggify::TpchConfig MakeTpchConfig(const WorkloadSpec& spec, uint64_t seed);

/// The loop units of a workload; keys in probe arguments and point calls
/// are drawn from `seed` within the generated key ranges.
std::vector<LoopUnit> MakeLoopUnits(const WorkloadSpec& spec,
                                    const aggify::TpchConfig& config,
                                    uint64_t seed);

/// The rewrite units of a workload.
std::vector<RewriteUnit> MakeRewriteUnits(const WorkloadSpec& spec,
                                          const std::vector<LoopUnit>& loops);

/// Tables every corpus program may reference (the schema AnalyzeCorpus
/// builds for its scratch databases).
const char* CorpusSchemaSql();

/// Table 1's Aggify-able loop count for a corpus, or -1 when unknown.
int ExpectedAggifyable(const std::string& corpus);

/// CREATE FUNCTION script of the two functions the server serves
/// (q18_totalqty, q2_mincostsupp), and their names.
std::string ServedFunctionsSql();
std::vector<std::string> ServedFunctionNames();

/// The statements of one server cycle, drawn from a client's key stream.
struct ServerCycle {
  std::string q18;      ///< QUERY, a plan-cache miss (literal key)
  std::string q2;       ///< QUERY, a plan-cache miss (literal key)
  std::string fixed;    ///< QUERY, fixed text: a plan-cache hit
  std::string declare;  ///< DECLARE over one supplier's lineitems
};
ServerCycle NextServerCycle(aggify::Random* keys,
                            const aggify::TpchConfig& config);

/// Rows per FETCH request.
inline constexpr int kFetchRows = 32;

}  // namespace loopbench
