// Shared pieces of the loopbench program: statistics, answer fingerprints,
// the outcome tally, the metric set it prints, and the span tracer.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/exec_context.h"

namespace loopbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- statistics -----------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Geometric mean of positive values; 0 when empty.
double Geomean(const std::vector<double>& values);

/// The per-unit statistic of the loop and rewrite timings: the minimum of
/// the unit's samples, which are spread over the whole run. Neighbours'
/// load slows a shared host by up to 3x for seconds at a time; the median
/// and the lower quartile of a unit moved by 15-25% between runs, the
/// minimum by 3-8% (README.md, "Host noise").
double UnitStatistic(const std::vector<double>& samples);

// --- answers ----------------------------------------------------------------

/// Order-insensitive, bit-exact digest of a result: the row count and the
/// sorted per-row hashes (Value::Hash is consistent with StructurallyEquals,
/// so doubles compare by bit pattern).
std::vector<uint64_t> RowDigest(const aggify::QueryResult& result);

/// RowDigest folded into one number, cheap enough to check every sample.
uint64_t ResultFingerprint(const aggify::QueryResult& result);

// --- outcome tally ----------------------------------------------------------

/// Operations attempted and failed across all threads. The first few
/// failure reasons are kept for stderr.
class Tally {
 public:
  void Ok() { attempted_.fetch_add(1, std::memory_order_relaxed); }
  void Fail(const std::string& why);
  int64_t attempted() const { return attempted_.load(); }
  int64_t failed() const { return failed_.load(); }
  std::vector<std::string> reasons() const;

 private:
  std::atomic<int64_t> attempted_{0};
  std::atomic<int64_t> failed_{0};
  mutable std::mutex mu_;
  std::vector<std::string> reasons_;  // guarded by mu_
};

// --- metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Named metrics in insertion order; Set replaces an existing name.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const Metric* Find(const std::string& name) const;
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// --- tracing ----------------------------------------------------------------

/// One timed call into a layer. `parent` indexes the same thread buffer
/// (-1 for a root span); spans of one request share `request`.
struct Span {
  const char* name = "";
  int unit = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t child_ns = 0;  ///< time covered by direct children
  int parent = -1;
  uint64_t request = 0;

  int64_t self_ns() const { return end_ns - start_ns - child_ns; }
};

/// In-memory span store. Each thread records into its own Tracer::Thread
/// buffer; buffers are handed back when the thread's work ends and written
/// out once the run is over. A null Tracer::Thread* disables recording.
class Tracer {
 public:
  class Thread {
   public:
    explicit Thread(Tracer* tracer) : tracer_(tracer) {}
    ~Thread();
    Thread(const Thread&) = delete;
    Thread& operator=(const Thread&) = delete;

    void Begin(const char* name, int unit, uint64_t request);
    void End();

   private:
    Tracer* tracer_;
    std::vector<Span> spans_;
    std::vector<int> open_;
  };

  Tracer();

  /// Stable small id for a unit label (a query id, a program name, ...).
  int UnitId(const std::string& label);
  uint64_t NextRequest() { return next_request_.fetch_add(1) + 1; }

  /// For every span name: per unit, the median self time in microseconds;
  /// then the geometric mean over units.
  std::map<std::string, double> TypicalSelfUs() const;

  /// Writes every span as one JSON object per line. Returns false on I/O
  /// failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  void Collect(std::vector<Span> spans);

  Clock::time_point origin_;
  std::atomic<uint64_t> next_request_{0};
  mutable std::mutex mu_;
  std::vector<std::string> units_;          // guarded by mu_
  std::vector<std::vector<Span>> buffers_;  // guarded by mu_
};

/// RAII span; a no-op when `thread` is null.
class SpanScope {
 public:
  SpanScope(Tracer::Thread* thread, const char* name, int unit,
            uint64_t request)
      : thread_(thread) {
    if (thread_ != nullptr) thread_->Begin(name, unit, request);
  }
  ~SpanScope() {
    if (thread_ != nullptr) thread_->End();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer::Thread* thread_;
};

}  // namespace loopbench
