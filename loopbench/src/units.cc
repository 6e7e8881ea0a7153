#include "units.h"

#include <cstdlib>

#include "tpch/cursor_workload.h"
#include "workloads/corpus.h"
#include "workloads/tpch_adapter.h"

namespace loopbench {

using aggify::Value;

namespace {

// Shares: the named phase gets most of the run. A server slice gets 0.4:
// its percentiles need that much time to be steady on a noisy host; the
// other slices need less. server_sessions keeps a 0.1 loop slice because
// its point calls take tens of microseconds each.
const WorkloadSpec kWorkloads[] = {
    {"tpch_cursor", 0.001, LoopSet::kTpchQueries, false, 0.55, 0.05, 0.40},
    {"lineitem_loops", 0.01, LoopSet::kLineitemFamilies, false, 0.55, 0.05,
     0.40},
    {"server_sessions", 0.01, LoopSet::kServedCalls, false, 0.10, 0.05, 0.85},
    {"rewrite_corpus", 0.001, LoopSet::kLineitemFamilies, true, 0.10, 0.50,
     0.40},
};

// Four whole-table cursor-loop families over lineitem. Each exercises a
// different rewrite outcome: an interpreted Agg_delta with a Merge, a loop
// lowered to a builtin sum over a computed expression, a synthesized Merge
// that is parallel-eligible, and an ordered loop that keeps Eq. 6's Sort +
// StreamAggregate and stays serial.
struct Family {
  const char* name;
  const char* sql;
};

const Family kFamilies[] = {
    {"li_avg_qty", R"(
      CREATE FUNCTION li_avg_qty() RETURNS FLOAT AS
      BEGIN
        DECLARE @q FLOAT;
        DECLARE @s FLOAT = 0.0;
        DECLARE @n INT = 0;
        DECLARE c CURSOR FOR SELECT l_quantity FROM lineitem
                             WHERE l_discount < 0.05;
        OPEN c;
        FETCH NEXT FROM c INTO @q;
        WHILE @@FETCH_STATUS = 0
        BEGIN
          SET @s = @s + @q;
          SET @n = @n + 1;
          FETCH NEXT FROM c INTO @q;
        END
        CLOSE c; DEALLOCATE c;
        IF (@n = 0)
          RETURN 0.0;
        RETURN @s / @n;
      END
    )"},
    {"li_revenue", R"(
      CREATE FUNCTION li_revenue() RETURNS FLOAT AS
      BEGIN
        DECLARE @p FLOAT;
        DECLARE @d FLOAT;
        DECLARE @s FLOAT = 0.0;
        DECLARE c CURSOR FOR SELECT l_extendedprice, l_discount FROM lineitem;
        OPEN c;
        FETCH NEXT FROM c INTO @p, @d;
        WHILE @@FETCH_STATUS = 0
        BEGIN
          SET @s = @s + @p * (1 - @d);
          FETCH NEXT FROM c INTO @p, @d;
        END
        CLOSE c; DEALLOCATE c;
        RETURN @s;
      END
    )"},
    {"li_sum_max", R"(
      CREATE FUNCTION li_sum_max() RETURNS FLOAT AS
      BEGIN
        DECLARE @q FLOAT;
        DECLARE @p FLOAT;
        DECLARE @s FLOAT = 0.0;
        DECLARE @m FLOAT = 0.0;
        DECLARE c CURSOR FOR SELECT l_quantity, l_extendedprice
                             FROM lineitem WHERE l_quantity > 1;
        OPEN c;
        FETCH NEXT FROM c INTO @q, @p;
        WHILE @@FETCH_STATUS = 0
        BEGIN
          SET @s = @s + @q;
          IF (@p > @m)
            SET @m = @p;
          FETCH NEXT FROM c INTO @q, @p;
        END
        CLOSE c; DEALLOCATE c;
        RETURN @s + @m;
      END
    )"},
    {"li_order_runs", R"(
      CREATE FUNCTION li_order_runs() RETURNS INT AS
      BEGIN
        DECLARE @ok INT;
        DECLARE @prev INT = -1;
        DECLARE @runs INT = 0;
        DECLARE c CURSOR FOR SELECT l_orderkey FROM lineitem
                             ORDER BY l_orderkey;
        OPEN c;
        FETCH NEXT FROM c INTO @ok;
        WHILE @@FETCH_STATUS = 0
        BEGIN
          IF (@ok <> @prev)
            SET @runs = @runs + 1;
          SET @prev = @ok;
          FETCH NEXT FROM c INTO @ok;
        END
        CLOSE c; DEALLOCATE c;
        RETURN @runs;
      END
    )"},
};

Value DateValue(const char* text) {
  return Value::String(text).CastTo(aggify::TypeId::kDate).ValueOrDie();
}

const aggify::TpchCursorQuery& Tpch(const std::string& id) {
  for (const auto& q : aggify::TpchCursorQueries()) {
    if (q.id == id) return q;
  }
  std::abort();  // the six ids below are fixed by the workload definition
}

}  // namespace

const char* ModeMetric(Mode mode) {
  switch (mode) {
    case Mode::kOriginal: return "original_ms";
    case Mode::kAggify: return "aggify_ms";
    case Mode::kAggifyPlus: return "aggify_plus_ms";
    case Mode::kAggifyDop2: return "aggify_dop2_ms";
  }
  return "?";
}

const char* ModeLabel(Mode mode) {
  switch (mode) {
    case Mode::kOriginal: return "original";
    case Mode::kAggify: return "aggify";
    case Mode::kAggifyPlus: return "aggify_plus";
    case Mode::kAggifyDop2: return "aggify_dop2";
  }
  return "?";
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

aggify::TpchConfig MakeTpchConfig(const WorkloadSpec& spec, uint64_t seed) {
  aggify::TpchConfig config;
  config.scale_factor = spec.scale_factor;
  config.seed = seed;
  return config;
}

std::vector<LoopUnit> MakeLoopUnits(const WorkloadSpec& spec,
                                    const aggify::TpchConfig& config,
                                    uint64_t seed) {
  aggify::Random keys(seed ^ 0x100b5u);
  auto key = [&keys](int64_t n) { return Value::Int(keys.UniformRange(1, n)); };
  std::vector<LoopUnit> units;
  switch (spec.loops) {
    case LoopSet::kTpchQueries:
      for (const auto& q : aggify::TpchCursorQueries()) {
        LoopUnit unit{aggify::ToWorkloadQuery(q), {}};
        if (q.id == "Q2") unit.probe_args = {key(config.num_parts())};
        if (q.id == "Q13") unit.probe_args = {key(config.num_customers())};
        if (q.id == "Q14") {
          unit.probe_args = {DateValue("1995-09-01"), DateValue("1995-10-01")};
        }
        if (q.id == "Q18") unit.probe_args = {key(config.num_orders())};
        if (q.id == "Q21") unit.probe_args = {key(config.num_suppliers())};
        units.push_back(std::move(unit));
      }
      break;
    case LoopSet::kLineitemFamilies:
      for (const Family& f : kFamilies) {
        aggify::WorkloadQuery q;
        q.id = f.name;
        q.udf_sql = f.sql;
        q.udf_names = {f.name};
        q.driver_sql = std::string("SELECT ") + f.name + "() AS v";
        units.push_back(LoopUnit{std::move(q), {}});
      }
      break;
    case LoopSet::kServedCalls:
      // Eight seeded keys per statement, so the unit's cost does not hinge
      // on how many lineitems or suppliers one key happens to have.
      for (const char* id : {"Q18", "Q2"}) {
        const auto& tq = Tpch(id);
        const std::string& fn = tq.udf_names[0];
        aggify::WorkloadQuery q = aggify::ToWorkloadQuery(tq);
        q.id = fn + "_points";
        q.driver_sql = "SELECT ";
        LoopUnit unit;
        for (int i = 1; i <= 8; ++i) {
          Value k =
              key(tq.id == "Q18" ? config.num_orders() : config.num_parts());
          if (i == 1) unit.probe_args = {k};
          q.driver_sql += (i > 1 ? ", " : "") + fn + "(" + k.ToString() +
                          ") AS v" + std::to_string(i);
        }
        unit.query = std::move(q);
        units.push_back(std::move(unit));
      }
      break;
  }
  return units;
}

std::vector<RewriteUnit> MakeRewriteUnits(const WorkloadSpec& spec,
                                          const std::vector<LoopUnit>& loops) {
  std::vector<RewriteUnit> units;
  if (spec.corpus_rewrites) {
    for (const auto& corpus : aggify::ApplicabilityCorpora()) {
      int n = 0;
      for (const std::string& program : corpus.programs) {
        units.push_back(RewriteUnit{
            corpus.name + "/program" + std::to_string(++n), corpus.name,
            program, {}});
      }
    }
    return units;
  }
  for (const LoopUnit& loop : loops) {
    units.push_back(RewriteUnit{loop.query.id, "", loop.query.udf_sql,
                                loop.query.udf_names});
  }
  return units;
}

const char* CorpusSchemaSql() {
  return "CREATE TABLE tbl0 (v INT); CREATE TABLE tbl1 (v INT); "
         "CREATE TABLE tbl2 (v INT); CREATE TABLE tbl3 (v INT); "
         "CREATE TABLE tbl4 (v INT); CREATE TABLE tbl5 (v INT); "
         "CREATE TABLE tbl6 (v INT); CREATE TABLE event_log (v INT); "
         "CREATE TABLE acct_bal (acct INT, bal INT);";
}

int ExpectedAggifyable(const std::string& corpus) {
  if (corpus == "RUBiS") return 14;
  if (corpus == "RUBBoS") return 14;
  if (corpus == "Adempiere") return 96;
  return -1;
}

std::string ServedFunctionsSql() {
  return Tpch("Q18").udf_sql + Tpch("Q2").udf_sql;
}

std::vector<std::string> ServedFunctionNames() {
  return {Tpch("Q18").udf_names[0], Tpch("Q2").udf_names[0]};
}

ServerCycle NextServerCycle(aggify::Random* keys,
                            const aggify::TpchConfig& config) {
  ServerCycle cycle;
  cycle.q18 = "SELECT q18_totalqty(" +
              std::to_string(keys->UniformRange(1, config.num_orders())) +
              ")";
  cycle.q2 = "SELECT q2_mincostsupp(" +
             std::to_string(keys->UniformRange(1, config.num_parts())) + ")";
  cycle.fixed = "SELECT COUNT(*), SUM(o_totalprice) FROM orders";
  // One supplier's lineitems through the l_suppkey index: about 600 rows,
  // so about 19 FETCH pages, at every scale factor. (The planner seeks only
  // on equality; a key range would scan the whole table.)
  cycle.declare =
      "SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice "
      "FROM lineitem WHERE l_suppkey = " +
      std::to_string(keys->UniformRange(1, config.num_suppliers()));
  return cycle;
}

}  // namespace loopbench
