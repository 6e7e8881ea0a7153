#include <algorithm>
#include <cstdlib>
#include <thread>

#include "phases.h"

namespace loopbench {

using namespace aggify;

namespace {

/// Single-session cycles of the warm-up pass; their plan-cache counters are
/// the exact counts two runs of one seed must repeat.
constexpr int kWarmupCycles = 200;
/// Paired cycles of the traced probe.
constexpr int kProbeCycles = 200;

bool IsError(const std::string& reply) { return reply.rfind("ERR", 0) == 0; }

/// The ROW lines of a QUERY or FETCH reply, and its last line.
void SplitReply(const std::string& reply, std::vector<std::string>* rows,
                std::string* last) {
  size_t pos = 0;
  while (pos < reply.size()) {
    size_t end = reply.find('\n', pos);
    if (end == std::string::npos) end = reply.size();
    std::string line = reply.substr(pos, end - pos);
    if (line.rfind("ROW", 0) == 0) {
      if (rows != nullptr) rows->push_back(line);
    } else {
      *last = line;
    }
    pos = end + 1;
  }
}

/// The number after `prefix` in a one-line reply, or 0.
uint64_t ReplyNumber(const std::string& reply, const std::string& prefix) {
  if (reply.rfind(prefix, 0) != 0) return 0;
  return std::strtoull(reply.c_str() + prefix.size(), nullptr, 10);
}

}  // namespace

ServerPhase::ServerPhase(EngineService* service, TpchConfig config,
                         uint64_t seed, Tally* tally, Tracer* tracer)
    : service_(service),
      server_(service),
      config_(config),
      seed_(seed),
      tally_(tally),
      tracer_(tracer) {}

ServerPhase::~ServerPhase() = default;

std::string ServerPhase::Call(const std::string& request, Tracer::Thread* trace,
                              const char* span, uint64_t request_id) {
  std::string reply;
  {
    SpanScope scope(trace, span, -1, request_id);
    reply = server_.Handle(request);
  }
  if (IsError(reply)) {
    errors_.fetch_add(1);
    tally_->Fail(request.substr(0, 80) + " -> " + reply);
  } else {
    tally_->Ok();
  }
  return reply;
}

void ServerPhase::Client(uint64_t stream, Clock::time_point origin,
                         Clock::time_point deadline, Latencies* out,
                         Tracer::Thread* trace) {
  Random keys(seed_ * 1000003u + stream);
  const bool warmup = stream == 0;
  std::string opened = Call("OPEN dop=1 batch=1", trace, "server.handle", 0);
  const std::string sid = std::to_string(ReplyNumber(opened, "OK "));
  if (IsError(opened)) return;

  std::string last_declare;
  std::vector<std::string> last_rows;
  auto timed = [&](const std::string& request, std::vector<double>* lat,
                   uint64_t req) {
    Clock::time_point start = Clock::now();
    std::string reply = Call(request, trace, "server.handle", req);
    lat->push_back(SecondsSince(start) * 1000.0);
    out->done_s.push_back(SecondsSince(origin));
    return reply;
  };
  for (int cycle = 0;
       warmup ? cycle < kWarmupCycles : Clock::now() < deadline; ++cycle) {
    ServerCycle c = NextServerCycle(&keys, config_);
    uint64_t req = tracer_ != nullptr ? tracer_->NextRequest() : 0;
    std::string last;
    for (const std::string* q : {&c.q18, &c.q2}) {
      std::string reply = timed("QUERY " + sid + " " + *q, &out->query_ms, req);
      SplitReply(reply, nullptr, &last);
      if (!IsError(reply) && last != "OK 1") {
        tally_->Fail(*q + ": expected one row, got " + last);
      }
    }
    std::string fixed =
        timed("QUERY " + sid + " " + c.fixed, &out->query_ms, req);
    if (warmup && fixed_reply_.empty()) fixed_reply_ = fixed;
    if (!IsError(fixed) && fixed != fixed_reply_) {
      tally_->Fail(c.fixed + ": answer changed between executions");
    }
    std::string declared =
        timed("DECLARE " + sid + " " + c.declare, &out->query_ms, req);
    if (IsError(declared)) continue;
    const std::string cid = std::to_string(ReplyNumber(declared, "CURSOR "));
    // DONE closes the cursor; the registry rejects a CLOSE after it.
    std::vector<std::string> rows;
    for (;;) {
      std::string page =
          timed("FETCH " + sid + " " + cid + " " + std::to_string(kFetchRows),
                &out->fetch_ms, req);
      if (IsError(page)) break;
      SplitReply(page, &rows, &last);
      if (last.rfind("DONE ", 0) == 0) {
        if (ReplyNumber(last, "DONE ") != rows.size()) {
          tally_->Fail(c.declare + ": " + last + " after " +
                       std::to_string(rows.size()) + " rows");
        }
        break;
      }
    }
    last_declare = c.declare;
    last_rows = std::move(rows);
  }

  // Untimed answer check: the last drained cursor equals the one-shot QUERY
  // of the same text, row for row.
  if (!last_declare.empty()) {
    std::string reply = Call("QUERY " + sid + " " + last_declare, trace,
                             "server.check", 0);
    std::vector<std::string> rows;
    std::string last;
    SplitReply(reply, &rows, &last);
    if (!IsError(reply) && rows != last_rows) {
      tally_->Fail(last_declare + ": drained cursor differs from one-shot");
    }
  }
  Call("CLOSE " + sid, trace, "server.handle", 0);
}

Status ServerPhase::Warmup(Counts* counts) {
  Latencies warm;
  {
    std::unique_ptr<Tracer::Thread> trace =
        tracer_ != nullptr ? std::make_unique<Tracer::Thread>(tracer_)
                           : nullptr;
    Client(0, Clock::now(), Clock::now(), &warm, trace.get());
  }
  if (errors() > 0) return Status::ExecutionError("server warm-up failed");
  ServerStatsSnapshot stats = server_.Stats();
  (*counts)["plan.cache_hits"] += stats.plan_cache_hits;
  (*counts)["plan.cache_misses"] += stats.plan_cache_misses;
  (*counts)["server.cursor_fetches"] += stats.cursor_fetches;
  (*counts)["server.rows_streamed"] += stats.cursor_rows_streamed;
  return Status::OK();
}

void ServerPhase::RunFor(double seconds) {
  Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  Latencies lat[kClients];
  {
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i) {
      uint64_t stream = ++grants_ * kClients + static_cast<uint64_t>(i);
      clients.emplace_back([this, stream, start, deadline, &lat, i] {
        std::unique_ptr<Tracer::Thread> trace =
            tracer_ != nullptr ? std::make_unique<Tracer::Thread>(tracer_)
                               : nullptr;
        Client(stream, start, deadline, &lat[i], trace.get());
      });
    }
    for (std::thread& t : clients) t.join();
  }
  auto blocks = [](const std::vector<double>& ms, std::vector<double>* p50,
                   std::vector<double>* p99) {
    for (size_t b = 0; b + kBlockSamples <= ms.size(); b += kBlockSamples) {
      std::vector<double> block(
          ms.begin() + static_cast<long>(b),
          ms.begin() + static_cast<long>(b + kBlockSamples));
      p50->push_back(Quantile(block, 0.50));
      p99->push_back(Quantile(block, 0.99));
    }
  };
  // Slices cover the span in which every client was still issuing.
  double busy_s = seconds;
  std::vector<double> done;
  for (const Latencies& l : lat) {
    blocks(l.query_ms, &query_p50_, &query_p99_);
    blocks(l.fetch_ms, &fetch_p50_, &fetch_p99_);
    busy_s = std::min(busy_s, l.done_s.empty() ? 0.0 : l.done_s.back());
    done.insert(done.end(), l.done_s.begin(), l.done_s.end());
  }
  const int slices = static_cast<int>(busy_s / kSliceS);
  std::vector<int64_t> counts(static_cast<size_t>(std::max(slices, 0)), 0);
  for (double t : done) {
    int s = static_cast<int>(t / kSliceS);
    if (s < slices) ++counts[static_cast<size_t>(s)];
  }
  for (int64_t c : counts) {
    slice_rps_.push_back(static_cast<double>(c) / kSliceS);
  }
}

void ServerPhase::Report(MetricSet* out) const {
  auto quiet = [](const std::vector<double>& p50, const std::vector<double>& p,
                  bool of_p50) {
    const double best = Quantile(p50, 0.0);
    std::vector<double> kept;
    for (size_t i = 0; i < p50.size(); ++i) {
      if (p50[i] <= kQuietFactor * best) kept.push_back(of_p50 ? p50[i] : p[i]);
    }
    return Quantile(kept, 0.5);
  };
  out->Set("requests_per_s", Quantile(slice_rps_, kSliceQuantile), "req/s");
  out->Set("query_p50_ms", quiet(query_p50_, query_p99_, true), "ms");
  out->Set("query_p99_ms", quiet(query_p50_, query_p99_, false), "ms");
  out->Set("fetch_p50_ms", quiet(fetch_p50_, fetch_p99_, true), "ms");
  out->Set("fetch_p99_ms", quiet(fetch_p50_, fetch_p99_, false), "ms");
}

int64_t ServerPhase::open_handles() {
  return server_.cursors().open_cursors() + server_.sessions().open_sessions();
}

Status ServerPhase::Probe() {
  // The same kinds of statement through Server::Handle and directly through
  // ClientSession / QueryCursor, alternating, so their difference is the
  // protocol layer. Both sides use fresh literal keys (plan-cache misses)
  // except the fixed text (a hit on both).
  Tracer::Thread trace(tracer_);
  Random keys(seed_ * 1000003u + 0xfeed);
  std::string opened = Call("OPEN dop=1 batch=1", &trace, "server.handle", 0);
  if (IsError(opened)) return Status::ExecutionError(opened);
  const std::string sid = std::to_string(ReplyNumber(opened, "OK "));
  EngineOptions options = service_->options();
  options.execution.degree_of_parallelism = 1;
  options.execution.enable_batch = true;
  ClientSession direct(service_, options);
  const int kinds[] = {tracer_->UnitId("q18"), tracer_->UnitId("q2"),
                       tracer_->UnitId("fixed")};
  const int fetch_unit = tracer_->UnitId("fetch");
  for (int i = 0; i < kProbeCycles; ++i) {
    ServerCycle a = NextServerCycle(&keys, config_);
    ServerCycle b = NextServerCycle(&keys, config_);
    const std::string* via[] = {&a.q18, &a.q2, &a.fixed};
    const std::string* own[] = {&b.q18, &b.q2, &b.fixed};
    for (int k = 0; k < 3; ++k) {
      {
        SpanScope s(&trace, "server.query_handle", kinds[k], 0);
        std::string reply = server_.Handle("QUERY " + sid + " " + *via[k]);
        if (IsError(reply)) tally_->Fail(reply);
      }
      Result<QueryResult> r = [&] {
        SpanScope s(&trace, "service.query", kinds[k], 0);
        return direct.Query(*own[k]);
      }();
      if (!r.ok()) tally_->Fail(r.status().ToString());
      std::unique_ptr<SelectStmt> stmt;
      {
        SpanScope s(&trace, "parser.parse", kinds[k], 0);
        ASSIGN_OR_RETURN(stmt, ParseSelect(*own[k]));
      }
      ExecContext ctx = direct.MakeContext();
      SpanScope s(&trace, "plan.explain", kinds[k], 0);
      RETURN_NOT_OK(service_->engine().Explain(*stmt, ctx).status());
    }
    std::string declared =
        server_.Handle("DECLARE " + sid + " " + a.declare);
    const std::string cid = std::to_string(ReplyNumber(declared, "CURSOR "));
    for (std::string last; last.rfind("DONE", 0) != 0;) {
      SpanScope s(&trace, "server.fetch_handle", fetch_unit, 0);
      std::string page = server_.Handle("FETCH " + sid + " " + cid + " " +
                                        std::to_string(kFetchRows));
      if (IsError(page)) return Status::ExecutionError(page);
      SplitReply(page, nullptr, &last);
    }
    ASSIGN_OR_RETURN(auto cursor, direct.Declare(b.declare));
    while (!cursor->done()) {
      SpanScope s(&trace, "cursor.fetch", fetch_unit, 0);
      RETURN_NOT_OK(cursor->Fetch(kFetchRows).status());
    }
  }
  Call("CLOSE " + sid, &trace, "server.handle", 0);
  return Status::OK();
}

}  // namespace loopbench
