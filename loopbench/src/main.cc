// loopbench: one benchmark for the Aggify engine's cursor-loop workloads,
// measured end to end through the repository's public entry points.
//
//   loopbench --workload <tpch_cursor|lineitem_loops|server_sessions|
//                         rewrite_corpus>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//             [--setup-only 1]
//
// --trace 0 prints the end-to-end metrics. --setup-only 1 builds the
// workbench once and prints only the seconds it took (the untraced run
// times its extra set-ups this way). --trace 1 runs the workload
// twice from fresh set-ups — once untraced, once with spans around every
// layer call — checks that both report identical exact counters, prints
// the per-layer metrics, and writes the spans to <dir> when given.
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 1 when any answer check failed, 2 on bad usage.
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>

#include "phases.h"
#include "tpch/tpch_gen.h"

using namespace aggify;
using namespace loopbench;

namespace {

/// Chunks a run is cut into; every phase gets its share of each chunk.
constexpr int kChunks = 8;
/// Seconds of fresh set-ups, each in a child process, after each chunk of
/// an untraced pass (at least one, at most kMaxSetupsPerChunk).
constexpr double kSetupSliceS = 0.1;
constexpr int kMaxSetupsPerChunk = 8;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_dir;
  bool setup_only = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--trace-dir") {
      args->trace_dir = value;
    } else if (key == "--setup-only") {
      args->setup_only = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         args->trace >= 0;
}

/// The server's database and the engine service over it.
struct ServedDatabase {
  Database db;
  EngineService service{&db};
};

/// Everything the phases need before measuring: the generated data, the
/// registered UDFs and the served functions rewritten once. This is what
/// setup_s times.
struct Workbench {
  std::unique_ptr<Database> loop_db;
  std::unique_ptr<ServedDatabase> server;
  std::vector<LoopUnit> loop_units;
  std::vector<RewriteUnit> rewrite_units;
};

Result<Workbench> BuildWorkbench(const WorkloadSpec& spec,
                                 const TpchConfig& config, uint64_t seed) {
  Workbench wb;
  wb.loop_units = MakeLoopUnits(spec, config, seed);
  wb.rewrite_units = MakeRewriteUnits(spec, wb.loop_units);

  wb.loop_db = std::make_unique<Database>();
  RETURN_NOT_OK(PopulateTpch(wb.loop_db.get(), config));
  Session loop_session(wb.loop_db.get());
  for (const LoopUnit& unit : wb.loop_units) {
    RETURN_NOT_OK(loop_session.RunSql(unit.query.udf_sql).status());
  }

  // The server gets its own database: the loop phase re-registers original
  // definitions of the same functions in its own catalog.
  wb.server = std::make_unique<ServedDatabase>();
  RETURN_NOT_OK(PopulateTpch(&wb.server->db, config));
  RETURN_NOT_OK(wb.server->service.RunSql(ServedFunctionsSql()).status());
  Aggify aggify(&wb.server->db);
  for (const std::string& name : ServedFunctionNames()) {
    RETURN_NOT_OK(aggify.RewriteFunction(name).status());
  }

  return wb;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// One measured pass over a fresh workbench: warm-up, `seconds` of chunked
/// measurement, end-to-end metrics. Probes run afterwards when traced.
struct Pass {
  Counts counts;
  MetricSet e2e;
  MetricSet probes;  ///< per-layer timings from the traced probes
  int64_t fallbacks = 0;
  int64_t server_errors = 0;
  int64_t open_handles = 0;
};

Status RunPass(const WorkloadSpec& spec, const TpchConfig& config,
               uint64_t seed, double seconds, Workbench wb, Tally* tally,
               Tracer* tracer, const std::function<void()>& between_chunks,
               Pass* pass) {
  LoopPhase loops(wb.loop_db.get(), wb.loop_units, tally, tracer,
                  spec.loop_share * seconds);
  RewritePhase rewrites(wb.rewrite_units, tally, tracer);
  ServerPhase server(&wb.server->service, config, seed, tally, tracer);

  Clock::time_point start = Clock::now();
  RETURN_NOT_OK(loops.Warmup(&pass->counts));
  RETURN_NOT_OK(rewrites.Warmup(&pass->counts));
  RETURN_NOT_OK(server.Warmup(&pass->counts));
  const double warmup_s = SecondsSince(start);

  start = Clock::now();
  for (int chunk = 0; chunk < kChunks; ++chunk) {
    loops.Run(spec.loop_share * seconds / kChunks);
    rewrites.Run(spec.rewrite_share * seconds / kChunks);
    server.Run(spec.server_share * seconds / kChunks);
    between_chunks();
  }
  loops.Complete();
  std::fprintf(stderr, "warm-up %.2fs, measured %.2fs\n", warmup_s,
               SecondsSince(start));
  loops.Report(&pass->e2e);
  rewrites.Report(&pass->e2e);
  server.Report(&pass->e2e);

  if (tracer != nullptr) {
    RETURN_NOT_OK(loops.Probe(&pass->probes));
    RETURN_NOT_OK(server.Probe());
  }
  pass->fallbacks = wb.loop_db->robustness().fallbacks_taken +
                    wb.server->db.robustness().fallbacks_taken;
  pass->server_errors = server.errors();
  pass->open_handles = server.open_handles();
  return Status::OK();
}

void PrintResult(const Tally& tally, const MetricSet& metrics) {
  for (const std::string& why : tally.reasons()) {
    std::fprintf(stderr, "FAILED: %s\n", why.c_str());
  }
  for (const Metric& m : metrics.all()) {
    std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              tally.failed() == 0 ? "true" : "false",
              static_cast<long long>(tally.attempted()),
              static_cast<long long>(tally.failed()));
  const char* sep = "";
  for (const Metric& m : metrics.all()) {
    double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), v, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Times one fresh set-up in a child process running `--setup-only 1`,
/// which builds the workbench and prints the seconds it took. The child's
/// memory never counts towards this process's peak RSS. Returns a negative
/// value when the child fails.
double ChildSetupSeconds(const Args& args) {
  std::error_code ec;
  const std::string self =
      std::filesystem::read_symlink("/proc/self/exe", ec).string();
  if (ec || self.find('\'') != std::string::npos) return -1;
  const std::string command = "'" + self + "' --workload " + args.workload +
                              " --seed " + std::to_string(args.seed) +
                              " --seconds 1 --trace 0 --setup-only 1";
  FILE* child = popen(command.c_str(), "r");
  if (child == nullptr) return -1;
  double seconds = -1;
  if (std::fscanf(child, "%lf", &seconds) != 1) seconds = -1;
  const int status = pclose(child);  // waits for the child to exit
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? seconds : -1;
}

int RunSetupOnly(const WorkloadSpec& spec, const Args& args) {
  Clock::time_point start = Clock::now();
  auto wb = BuildWorkbench(spec, MakeTpchConfig(spec, args.seed), args.seed);
  const double seconds = SecondsSince(start);
  if (!wb.ok()) return 1;
  std::printf("%.17g\n", seconds);
  std::fflush(stdout);
  std::_Exit(0);  // the workbench dies with the process
}

int RunUntraced(const WorkloadSpec& spec, const Args& args) {
  Tally tally;
  TpchConfig config = MakeTpchConfig(spec, args.seed);
  // setup_s is the median of fresh set-ups: this process's own, then more
  // after every chunk, spread over the run so that a slow stretch of the
  // host cannot decide it. Those run in child processes, so peak_rss_mb
  // holds one set-up's data only.
  std::vector<double> setup_times;
  Clock::time_point start = Clock::now();
  auto wb = BuildWorkbench(spec, config, args.seed);
  setup_times.push_back(SecondsSince(start));
  if (!wb.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", wb.status().ToString().c_str());
    return 1;
  }
  const int per_chunk = std::clamp(
      static_cast<int>(kSetupSliceS / setup_times[0]), 1, kMaxSetupsPerChunk);
  auto between_chunks = [&] {
    for (int i = 0; i < per_chunk; ++i) {
      double s = ChildSetupSeconds(args);
      if (s < 0) {
        tally.Fail("set-up in a child process failed");
      } else {
        setup_times.push_back(s);
      }
    }
  };
  Pass pass;
  Status st = RunPass(spec, config, args.seed, args.seconds,
                      std::move(wb).ValueOrDie(), &tally, nullptr,
                      between_chunks, &pass);
  if (!st.ok()) tally.Fail("run: " + st.ToString());
  if (pass.fallbacks > 0) {
    tally.Fail(std::to_string(pass.fallbacks) +
               " rewritten statements fell back to the cursor loop");
  }
  if (pass.open_handles != 0) {
    tally.Fail(std::to_string(pass.open_handles) +
               " server cursors or sessions left open");
  }
  std::fprintf(stderr, "set-ups %zu, median %.5fs, min %.5fs, max %.5fs\n",
               setup_times.size(), Quantile(setup_times, 0.5),
               Quantile(setup_times, 0.0), Quantile(setup_times, 1.0));
  MetricSet out;
  out.Set("setup_s", Quantile(setup_times, 0.5), "s");
  out.Set("peak_rss_mb", PeakRssMb(), "MB");
  for (const Metric& m : pass.e2e.all()) out.Set(m.name, m.value, m.unit);
  PrintResult(tally, out);
  return tally.failed() == 0 ? 0 : 1;
}

int RunTraced(const WorkloadSpec& spec, const Args& args) {
  Tally tally;
  Tracer tracer;
  TpchConfig config = MakeTpchConfig(spec, args.seed);
  const double half = args.seconds / 2;
  Pass untraced, traced;
  for (Pass* pass : {&untraced, &traced}) {
    auto wb = BuildWorkbench(spec, config, args.seed);
    if (!wb.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   wb.status().ToString().c_str());
      return 1;
    }
    Status st = RunPass(spec, config, args.seed, half,
                        std::move(wb).ValueOrDie(), &tally,
                        pass == &traced ? &tracer : nullptr, [] {}, pass);
    if (!st.ok()) tally.Fail("run: " + st.ToString());
  }

  // Determinism: both passes ran the same warm-up work from the same seed.
  for (const auto& [key, value] : untraced.counts) {
    auto it = traced.counts.find(key);
    int64_t other = it == traced.counts.end() ? -1 : it->second;
    if (other != value) {
      tally.Fail("count " + key + " differs between runs: " +
                 std::to_string(value) + " vs " + std::to_string(other));
    }
  }
  if (untraced.counts.size() != traced.counts.size()) {
    tally.Fail("the two runs report different counter sets");
  }
  for (const auto& [key, value] : traced.counts) {
    if (key.rfind("unit.", 0) == 0) {
      std::printf("count %-52s %lld\n", key.c_str(),
                  static_cast<long long>(value));
    }
  }

  std::map<std::string, double> self_us = tracer.TypicalSelfUs();
  auto value = [](const MetricSet& set, const char* name) {
    const Metric* m = set.Find(name);
    return m != nullptr ? m->value : 0.0;
  };
  // Traced over untraced end-to-end time, over every timing metric.
  std::vector<double> ratios;
  for (const char* name :
       {"original_ms", "aggify_ms", "aggify_plus_ms", "aggify_dop2_ms",
        "rewrite_ms", "query_p50_ms", "fetch_p50_ms"}) {
    double a = value(untraced.e2e, name);
    double b = value(traced.e2e, name);
    if (a > 0 && b > 0) ratios.push_back(b / a);
  }
  double rps_a = value(untraced.e2e, "requests_per_s");
  double rps_b = value(traced.e2e, "requests_per_s");
  if (rps_a > 0 && rps_b > 0) ratios.push_back(rps_a / rps_b);

  auto count = [&](const char* name) {
    auto it = traced.counts.find(name);
    return it == traced.counts.end() ? 0.0 : static_cast<double>(it->second);
  };
  MetricSet out;
  out.Set("parser.parse_us", self_us["parser.parse"], "us");
  out.Set("analysis.rewrite_us", self_us["aggify.rewrite"], "us");
  out.Set("froid.inline_us", self_us["froid.rewrite"], "us");
  out.Set("plan.plan_us", self_us["plan.explain"], "us");
  out.Set("plan.cache_hits", count("plan.cache_hits"), "count");
  out.Set("plan.cache_misses", count("plan.cache_misses"), "count");
  for (const char* name :
       {"exec.q_ms", "exec.rewritten_ms", "exec.rewritten_dop2_ms"}) {
    out.Set(name, value(traced.probes, name), "ms");
  }
  out.Set("exec.dop2_speedup",
          value(untraced.e2e, "aggify_dop2_ms") > 0
              ? value(untraced.e2e, "aggify_ms") /
                    value(untraced.e2e, "aggify_dop2_ms")
              : 0.0,
          "ratio");
  out.Set("exec.rows_produced", count("exec.rows_produced"), "count");
  for (Mode mode : kAllModes) {
    std::string key = std::string("exec.rows_produced.") + ModeLabel(mode);
    out.Set(key, count(key.c_str()), "count");
  }
  out.Set("exec.dop2_bit_mismatches", count("exec.dop2_bit_mismatches"),
          "count");
  out.Set("exec.queries_executed", count("exec.queries_executed"), "count");
  out.Set("storage.logical_reads", count("storage.logical_reads"), "count");
  out.Set("storage.worktable_pages_written",
          count("storage.worktable_pages_written"), "count");
  for (const char* name :
       {"aggregates.accumulate_ns_per_row", "aggregates.fold_ns_per_row",
        "procedural.ns_per_fetch"}) {
    out.Set(name, value(traced.probes, name), "ns");
  }
  out.Set("procedural.cursor_fetches", count("procedural.cursor_fetches"),
          "count");
  for (const char* flag : {"loops_rewritten", "lowered_to_builtin",
                           "merge_synthesized", "parallel_eligible",
                           "sort_elided"}) {
    std::string key = std::string("aggify.") + flag;
    out.Set(key, count(key.c_str()), "count");
  }
  out.Set("server.handle_us", self_us["server.handle"], "us");
  out.Set("service.query_us", self_us["service.query"], "us");
  out.Set("cursor.fetch_us", self_us["cursor.fetch"], "us");
  out.Set("server.query_overhead_us",
          self_us["server.query_handle"] - self_us["service.query"], "us");
  out.Set("server.fetch_overhead_us",
          self_us["server.fetch_handle"] - self_us["cursor.fetch"], "us");
  out.Set("robustness.fallbacks",
          static_cast<double>(untraced.fallbacks + traced.fallbacks), "count");
  out.Set("server.errors",
          static_cast<double>(untraced.server_errors + traced.server_errors),
          "count");
  out.Set("server.leaked_cursors",
          static_cast<double>(untraced.open_handles + traced.open_handles),
          "count");
  out.Set("tracing.overhead_pct", (Geomean(ratios) - 1.0) * 100.0, "%");

  if (untraced.fallbacks + traced.fallbacks > 0) {
    tally.Fail("rewritten statements fell back to the cursor loop");
  }
  if (untraced.open_handles + traced.open_handles != 0) {
    tally.Fail("server cursors or sessions left open");
  }
  if (!args.trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(args.trace_dir, ec);
    std::string path = args.trace_dir + "/" + spec.name + "-seed" +
                       std::to_string(args.seed) + ".spans.jsonl";
    if (ec || !tracer.WriteJsonLines(path)) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
    } else {
      std::printf("spans written to %s\n", path.c_str());
    }
  }
  PrintResult(tally, out);
  return tally.failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: loopbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-dir <dir>]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  if (args.setup_only) return RunSetupOnly(*spec, args);
  return args.trace ? RunTraced(*spec, args) : RunUntraced(*spec, args);
}
