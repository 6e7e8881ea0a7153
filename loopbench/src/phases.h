// The three measured phases. Each phase owns its units, runs an untimed
// warm-up pass that fixes the reference answers and the exact counters,
// then takes timed samples whenever the scheduler grants it time. The
// scheduler in main.cc cuts the run into chunks and hands each phase its
// share of every chunk, so a noisy stretch of the host hits all phases;
// inside a phase, units are visited round-robin for the same reason.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "procedural/service.h"
#include "server/server.h"
#include "units.h"

namespace loopbench {

/// Exact counters, keyed by per-layer metric name. Two runs with the same
/// seed must produce the same map.
using Counts = std::map<std::string, int64_t>;

class Phase {
 public:
  virtual ~Phase() = default;

  /// Untimed pass over every unit: checks answers across modes, records the
  /// reference answers the timed samples are checked against, and adds the
  /// layers' exact counters to `counts`.
  virtual aggify::Status Warmup(Counts* counts) = 0;

  /// Grants `budget_s` more seconds. Time overspent by a long sample is
  /// carried over and repaid from later grants.
  void Run(double budget_s) {
    allowed_s_ += budget_s;
    if (spent_s_ >= allowed_s_) return;
    Clock::time_point start = Clock::now();
    RunFor(allowed_s_ - spent_s_);
    spent_s_ += SecondsSince(start);
  }

  /// Adds this phase's end-to-end metrics.
  virtual void Report(MetricSet* out) const = 0;

 protected:
  virtual void RunFor(double seconds) = 0;

 private:
  double allowed_s_ = 0;
  double spent_s_ = 0;
};

/// Cursor-loop units under the four modes (original/aggify/aggify_plus/
/// aggify_dop2 _ms). Every sample, traced or not, takes
/// aggify::RunWorkloadQuery's steps one layer call at a time (inside spans
/// when traced), at EngineOptions::WithDop(2) for DOP 2. The warm-up
/// rewrites each unit's functions once; samples install the original or
/// rewritten definitions, so no sample adds to the catalog.
class LoopPhase : public Phase {
 public:
  LoopPhase(aggify::Database* db, std::vector<LoopUnit> units, Tally* tally,
            Tracer* tracer, double planned_s);
  ~LoopPhase() override;

  aggify::Status Warmup(Counts* counts) override;
  void Report(MetricSet* out) const override;
  /// Samples any cell the schedule has not reached yet (a slow cell whose
  /// turn fell after the last chunk), so every cell reports.
  void Complete();
  /// Traced runs only: times each unit's cursor query Q alone, its rewritten
  /// query at DOP 1 and 2, one original call, and the aggregate's
  /// Accumulate or builtin fold over Q's rows; adds the per-layer metrics.
  aggify::Status Probe(MetricSet* out);

 protected:
  void RunFor(double seconds) override;

 private:
  struct Cell {
    size_t unit = 0;
    Mode mode = Mode::kOriginal;
    double warm_s = 0;
    /// Fingerprint every sample must reproduce: Original's answer, except
    /// at DOP 2 (see Warmup).
    uint64_t reference = 0;
    int stride = 1;  ///< sampled every `stride` rounds
    int offset = 0;  ///< ... in rounds where round % stride == offset
    std::vector<double> ms;
  };
  struct Output {
    double seconds = 0;
    aggify::QueryResult result;
    aggify::IoStats io;
  };
  /// A unit's function definitions before and after its one rewrite, in
  /// udf_names order, and the rewrite report of its first function.
  struct Definitions {
    std::vector<std::shared_ptr<const aggify::FunctionDef>> original;
    std::vector<std::shared_ptr<const aggify::FunctionDef>> rewritten;
    aggify::AggifyReport report;
  };

  /// Registers unit `u`'s functions (fresh originals), rewrites them with
  /// Aggify::RewriteFunction and appends both definitions to defs_.
  aggify::Status Rewrite(size_t u);
  /// Puts the definitions mode `mode` runs into the catalog.
  void InstallDefinitions(size_t u, Mode mode);
  aggify::Result<Output> Execute(size_t u, Mode mode);
  void Sample(Cell* cell);
  void PlanSchedule();

  aggify::Database* db_;
  std::vector<LoopUnit> units_;
  Tally* tally_;
  Tracer* tracer_;
  std::unique_ptr<Tracer::Thread> trace_;
  double planned_s_;
  std::vector<Definitions> defs_;  ///< per unit, from the warm-up
  std::vector<Cell> cells_;
  size_t next_cell_ = 0;
  int round_ = 0;
};

/// Parse + Aggify rewrite of loop programs (rewrite_ms): CREATE FUNCTION
/// scripts through Aggify::RewriteFunction, or anonymous corpus blocks
/// through Aggify::RewriteBlock. Every sample gets a fresh scratch catalog
/// (untimed), as AnalyzeCorpus does, so the aggregates earlier samples
/// registered never weigh on later ones.
class RewritePhase : public Phase {
 public:
  RewritePhase(std::vector<RewriteUnit> units, Tally* tally, Tracer* tracer);
  ~RewritePhase() override;

  aggify::Status Warmup(Counts* counts) override;
  void Report(MetricSet* out) const override;

 protected:
  void RunFor(double seconds) override;

 private:
  /// One parse + rewrite; returns milliseconds and the loops rewritten.
  aggify::Result<std::pair<double, int>> Execute(size_t index,
                                                 aggify::AggifyReport* report);

  std::vector<RewriteUnit> units_;
  Tally* tally_;
  Tracer* tracer_;
  std::unique_ptr<Tracer::Thread> trace_;
  std::vector<std::vector<double>> ms_;
  std::vector<int> rewritten_;  ///< per unit, from the warm-up
  size_t next_ = 0;
};

/// Closed-loop protocol sessions through Server::Handle (requests_per_s,
/// query_/fetch_ p50/p99). In each grant `kClients` client threads each
/// open a session and repeat the ServerCycle until the grant ends.
/// Percentiles are taken per block of `kBlockSamples` consecutive requests
/// of one kind from one client. A block whose median exceeds
/// `kQuietFactor` times the run's best block median ran while neighbours'
/// load slowed the host; each percentile is the median over the other
/// ("quiet") blocks. Throughput is the `kSliceQuantile` quantile over
/// `kSliceS` slices.
class ServerPhase : public Phase {
 public:
  static constexpr int kClients = 2;
  static constexpr size_t kBlockSamples = 1000;
  static constexpr double kQuietFactor = 1.5;
  static constexpr double kSliceS = 0.1;
  static constexpr double kSliceQuantile = 0.9;

  /// `service` must already serve the rewritten functions.
  ServerPhase(aggify::EngineService* service, aggify::TpchConfig config,
              uint64_t seed, Tally* tally, Tracer* tracer);
  ~ServerPhase() override;

  aggify::Status Warmup(Counts* counts) override;
  void Report(MetricSet* out) const override;
  /// Traced runs only: times the same statements through Server::Handle
  /// and directly through ClientSession / QueryCursor.
  aggify::Status Probe();
  /// Protocol errors seen so far.
  int64_t errors() const { return errors_.load(); }
  /// Cursors plus sessions still open.
  int64_t open_handles();

 protected:
  void RunFor(double seconds) override;

 private:
  /// One client's timed requests in one grant.
  struct Latencies {
    std::vector<double> query_ms;
    std::vector<double> fetch_ms;
    std::vector<double> done_s;  ///< completion times, from the grant start
  };
  /// One client: OPEN, cycles from `start` until `deadline` (stream 0, the
  /// warm-up: a fixed number of cycles), a drained-vs-one-shot check, CLOSE.
  void Client(uint64_t stream, Clock::time_point start,
              Clock::time_point deadline, Latencies* out,
              Tracer::Thread* trace);
  /// Handle() plus error accounting; returns the reply.
  std::string Call(const std::string& request, Tracer::Thread* trace,
                   const char* span, uint64_t request_id);

  aggify::EngineService* service_;
  aggify::Server server_;
  aggify::TpchConfig config_;
  uint64_t seed_;
  Tally* tally_;
  Tracer* tracer_;
  std::atomic<int64_t> errors_{0};
  std::string fixed_reply_;  ///< the fixed-text query's reply, from warm-up
  std::vector<double> query_p50_, query_p99_;  ///< per block
  std::vector<double> fetch_p50_, fetch_p99_;  ///< per block
  std::vector<double> slice_rps_;              ///< per slice
  uint64_t grants_ = 0;
};

}  // namespace loopbench
