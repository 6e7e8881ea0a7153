#include "bench.h"

#include <algorithm>
#include <cmath>
#include <fstream>

namespace loopbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Geomean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(std::max(v, 1e-12));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double UnitStatistic(const std::vector<double>& samples) {
  return Quantile(samples, 0.0);
}

std::vector<uint64_t> RowDigest(const aggify::QueryResult& result) {
  std::vector<uint64_t> digest;
  digest.reserve(result.rows.size());
  for (const aggify::Row& row : result.rows) {
    uint64_t h = 0xcbf29ce484222325ull;
    for (const aggify::Value& v : row) {
      h ^= v.Hash();
      h *= 0x100000001b3ull;
    }
    digest.push_back(h);
  }
  std::sort(digest.begin(), digest.end());
  return digest;
}

uint64_t ResultFingerprint(const aggify::QueryResult& result) {
  uint64_t h = result.rows.size();
  for (uint64_t row : RowDigest(result)) {
    h ^= row + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

void Tally::Fail(const std::string& why) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  failed_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (reasons_.size() < 20) reasons_.push_back(why);
}

std::vector<std::string> Tally::reasons() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reasons_;
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

const Metric* MetricSet::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

Tracer::Tracer() : origin_(Clock::now()) {}

int Tracer::UnitId(const std::string& label) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < units_.size(); ++i) {
    if (units_[i] == label) return static_cast<int>(i);
  }
  units_.push_back(label);
  return static_cast<int>(units_.size() - 1);
}

void Tracer::Collect(std::vector<Span> spans) {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::move(spans));
}

Tracer::Thread::~Thread() {
  if (tracer_ != nullptr) tracer_->Collect(std::move(spans_));
}

void Tracer::Thread::Begin(const char* name, int unit, uint64_t request) {
  Span span;
  span.name = name;
  span.unit = unit;
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - tracer_->origin_)
                      .count();
  open_.push_back(static_cast<int>(spans_.size()));
  spans_.push_back(span);
}

void Tracer::Thread::End() {
  Span& span = spans_[static_cast<size_t>(open_.back())];
  open_.pop_back();
  span.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - tracer_->origin_)
                    .count();
  if (span.parent >= 0) {
    spans_[static_cast<size_t>(span.parent)].child_ns +=
        span.end_ns - span.start_ns;
  }
}

std::map<std::string, double> Tracer::TypicalSelfUs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::map<int, std::vector<double>>> by_name;
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer) {
      by_name[span.name][span.unit].push_back(
          static_cast<double>(span.self_ns()) / 1000.0);
    }
  }
  std::map<std::string, double> out;
  for (const auto& [name, units] : by_name) {
    std::vector<double> medians;
    for (const auto& [unit, samples] : units) {
      medians.push_back(Quantile(samples, 0.5));
    }
    out[name] = Geomean(medians);
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  for (size_t b = 0; b < buffers_.size(); ++b) {
    for (size_t i = 0; i < buffers_[b].size(); ++i) {
      const Span& s = buffers_[b][i];
      const std::string& unit =
          s.unit >= 0 ? units_[static_cast<size_t>(s.unit)] : std::string();
      out << "{\"thread\":" << b << ",\"id\":" << i << ",\"parent\":"
          << s.parent << ",\"request\":" << s.request << ",\"name\":\""
          << s.name << "\",\"unit\":\"" << unit << "\",\"start_ns\":"
          << s.start_ns << ",\"end_ns\":" << s.end_ns << ",\"self_ns\":"
          << s.self_ns() << "}\n";
    }
  }
  return static_cast<bool>(out);
}

}  // namespace loopbench
