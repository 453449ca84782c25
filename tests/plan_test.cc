#include <gtest/gtest.h>

#include <map>

#include "plan/optimizer.h"
#include "plan/planner.h"
#include "sql/parser.h"
#include "util/rng.h"

namespace nodb {
namespace {

class FakeCatalog : public TableProvider {
 public:
  FakeCatalog() {
    schemas_["small"] = Schema{{"sk", TypeId::kInt64},
                               {"sv", TypeId::kString}};
    schemas_["big"] = Schema{{"bk", TypeId::kInt64},
                             {"fk", TypeId::kInt64},
                             {"bv", TypeId::kDouble}};
    schemas_["mid"] = Schema{{"mk", TypeId::kInt64},
                             {"mv", TypeId::kInt64}};
  }
  Result<const Schema*> GetTableSchema(const std::string& name) const override {
    auto it = schemas_.find(name);
    if (it == schemas_.end()) return Status::NotFound("no table " + name);
    return &it->second;
  }

 private:
  std::map<std::string, Schema> schemas_;
};

/// StatsProvider with fabricated row counts and uniform attribute stats.
class FakeStats : public StatsProvider {
 public:
  void SetTable(const std::string& name, const Schema& schema, double rows,
                int64_t lo, int64_t hi, double ndv) {
    rows_[name] = rows;
    auto stats = std::make_unique<TableStats>(schema);
    Rng rng(1);
    for (int c = 0; c < schema.num_columns(); ++c) {
      if (schema.column(c).type != TypeId::kInt64) continue;
      for (int i = 0; i < 2000; ++i) {
        int64_t v = lo + rng.Uniform(0, static_cast<int64_t>(ndv) - 1) *
                             std::max<int64_t>(1, (hi - lo) / ndv);
        stats->AddValue(c, Value::Int64(v));
      }
    }
    stats->FinalizeAll();
    stats_[name] = std::move(stats);
  }
  const TableStats* GetTableStats(const std::string& name) const override {
    auto it = stats_.find(name);
    return it == stats_.end() ? nullptr : it->second.get();
  }
  double GetRowCount(const std::string& name) const override {
    auto it = rows_.find(name);
    return it == rows_.end() ? -1 : it->second;
  }

 private:
  std::map<std::string, double> rows_;
  std::map<std::string, std::unique_ptr<TableStats>> stats_;
};

Result<std::unique_ptr<BoundQuery>> Bind(const std::string& sql) {
  static FakeCatalog catalog;
  NODB_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> stmt, ParseSelect(sql));
  Binder binder(&catalog);
  return binder.Bind(*stmt);
}

TEST(PlannerTest, PushdownSplitsConjuncts) {
  auto q = Bind("SELECT sv FROM small, big "
                "WHERE sk = fk AND sk > 3 AND bv < 1.5");
  ASSERT_TRUE(q.ok()) << q.status();
  auto plan = PlanQuery(q->get(), nullptr);
  ASSERT_TRUE(plan.ok()) << plan.status();
  // One equi-join edge, one pushed conjunct per table.
  ASSERT_EQ((*plan)->joins.size(), 1u);
  EXPECT_EQ((*plan)->joins[0].probe_keys.size(), 1u);
  EXPECT_EQ((*plan)->scans[0].conjuncts.size(), 1u);  // sk > 3
  EXPECT_EQ((*plan)->scans[1].conjuncts.size(), 1u);  // bv < 1.5
}

TEST(PlannerTest, NeededColumnsSplitWherePayload) {
  auto q = Bind("SELECT sv FROM small WHERE sk > 3");
  ASSERT_TRUE(q.ok());
  auto plan = PlanQuery(q->get(), nullptr);
  ASSERT_TRUE(plan.ok());
  const PlannedScan& scan = (*plan)->scans[0];
  EXPECT_EQ(scan.where_attrs, (std::vector<int>{0}));   // sk
  EXPECT_EQ(scan.payload_attrs, (std::vector<int>{1})); // sv
}

TEST(PlannerTest, JoinKeysCountAsPayload) {
  auto q = Bind("SELECT bv FROM small, big WHERE sk = fk AND sk < 9");
  ASSERT_TRUE(q.ok());
  auto plan = PlanQuery(q->get(), nullptr);
  ASSERT_TRUE(plan.ok());
  // small: sk is a WHERE attr (filter) — fk on big is payload (join key).
  const PlannedScan& big = (*plan)->scans[1];
  EXPECT_TRUE(big.where_attrs.empty());
  EXPECT_EQ(big.payload_attrs, (std::vector<int>{1, 2}));  // fk, bv
}

TEST(PlannerTest, WithoutStatsDriverIsFromOrder) {
  auto q = Bind("SELECT sv FROM big, small WHERE sk = fk");
  ASSERT_TRUE(q.ok());
  auto plan = PlanQuery(q->get(), nullptr);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->driver_scan, 0);  // big first, per FROM order
}

TEST(PlannerTest, WithStatsLargestInputDrivesSmallerIsBuilt) {
  auto q = Bind("SELECT sv FROM small, big WHERE sk = fk");
  ASSERT_TRUE(q.ok());
  FakeStats stats;
  stats.SetTable("small", *(*q)->tables[0].schema, 100, 0, 1000, 100);
  stats.SetTable("big", *(*q)->tables[1].schema, 1e6, 0, 1000, 100);
  auto plan = PlanQuery(q->get(), &stats);
  ASSERT_TRUE(plan.ok());
  // big probes; small is the hash table.
  EXPECT_EQ((*plan)->driver_scan, 1);
  ASSERT_EQ((*plan)->joins.size(), 1u);
  EXPECT_EQ((*plan)->joins[0].build_scan, 0);
}

TEST(PlannerTest, StarJoinFactDrivesDimensionsBuiltSmallestFirst) {
  // big is the fact table; small and mid are dimensions keyed by bk / fk.
  auto q = Bind("SELECT sv, mv FROM mid, big, small "
                "WHERE mk = fk AND sk = bk");
  ASSERT_TRUE(q.ok()) << q.status();
  FakeStats stats;
  stats.SetTable("mid", *(*q)->tables[0].schema, 1000, 0, 1000, 100);
  stats.SetTable("big", *(*q)->tables[1].schema, 1e6, 0, 1000, 100);
  stats.SetTable("small", *(*q)->tables[2].schema, 100, 0, 1000, 100);
  auto plan = PlanQuery(q->get(), &stats);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ((*plan)->driver_scan, 1);  // big
  ASSERT_EQ((*plan)->joins.size(), 2u);
  EXPECT_EQ((*plan)->joins[0].build_scan, 2);  // small (100 rows)
  EXPECT_EQ((*plan)->joins[1].build_scan, 0);  // mid (1000 rows)
}

TEST(PlannerTest, LargestKnownEstimateDrivesOverUnknown) {
  // Only mid has statistics (a cold session where one file was read): it
  // drives, and the unknown inputs are built in FROM order.
  auto q = Bind("SELECT sv FROM small, mid, big WHERE sk = mk AND mv = fk");
  ASSERT_TRUE(q.ok());
  FakeStats stats;
  stats.SetTable("mid", *(*q)->tables[1].schema, 1000, 0, 1000, 100);
  auto plan = PlanQuery(q->get(), &stats);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ((*plan)->driver_scan, 1);
  ASSERT_EQ((*plan)->joins.size(), 2u);
  EXPECT_EQ((*plan)->joins[0].build_scan, 0);
  EXPECT_EQ((*plan)->joins[1].build_scan, 2);
}

TEST(PlannerTest, UnknownEstimateIsBuiltAfterKnownOnes) {
  // small and mid are bounded, big is not: big is never hashed while a
  // bounded input is left, so mid drives and small is built before big.
  auto q = Bind("SELECT sv FROM big, small, mid "
                "WHERE sk = mk AND mv = fk");
  ASSERT_TRUE(q.ok());
  FakeStats stats;
  stats.SetTable("small", *(*q)->tables[1].schema, 100, 0, 1000, 100);
  stats.SetTable("mid", *(*q)->tables[2].schema, 1000, 0, 1000, 100);
  auto plan = PlanQuery(q->get(), &stats);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ((*plan)->driver_scan, 2);
  ASSERT_EQ((*plan)->joins.size(), 2u);
  EXPECT_EQ((*plan)->joins[0].build_scan, 1);
  EXPECT_EQ((*plan)->joins[1].build_scan, 0);
}

TEST(PlannerTest, StatsOrderConjunctsBySelectivity) {
  auto q = Bind("SELECT sv FROM small WHERE sk > 3 AND sk = 7");
  ASSERT_TRUE(q.ok());
  FakeStats stats;
  stats.SetTable("small", *(*q)->tables[0].schema, 10000, 0, 100, 50);
  auto plan = PlanQuery(q->get(), &stats);
  ASSERT_TRUE(plan.ok());
  // Equality (1/ndv) is more selective than the range: evaluated first.
  const PlannedScan& scan = (*plan)->scans[0];
  ASSERT_EQ(scan.conjuncts.size(), 2u);
  EXPECT_NE(scan.conjuncts[0]->ToString().find("="), std::string::npos);
}

TEST(PlannerTest, AggStrategySwitchesOnStats) {
  auto q1 = Bind("SELECT sk, COUNT(*) FROM small GROUP BY sk");
  ASSERT_TRUE(q1.ok());
  auto without = PlanQuery(q1->get(), nullptr);
  ASSERT_TRUE(without.ok());
  EXPECT_EQ((*without)->agg_strategy, AggStrategy::kSort);

  auto q2 = Bind("SELECT sk, COUNT(*) FROM small GROUP BY sk");
  ASSERT_TRUE(q2.ok());
  FakeStats stats;
  stats.SetTable("small", *(*q2)->tables[0].schema, 10000, 0, 100, 20);
  auto with = PlanQuery(q2->get(), &stats);
  ASSERT_TRUE(with.ok());
  EXPECT_EQ((*with)->agg_strategy, AggStrategy::kHash);
  EXPECT_GT((*with)->agg_groups_hint, 0u);
}

TEST(PlannerTest, GlobalAggregationAlwaysHash) {
  auto q = Bind("SELECT COUNT(*) FROM small");
  ASSERT_TRUE(q.ok());
  auto plan = PlanQuery(q->get(), nullptr);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->agg_strategy, AggStrategy::kHash);
}

TEST(PlannerTest, ThreeWayJoinChainsConnected) {
  auto q = Bind(
      "SELECT sv FROM small, mid, big WHERE sk = mk AND mv = fk");
  ASSERT_TRUE(q.ok());
  auto plan = PlanQuery(q->get(), nullptr);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ((*plan)->joins.size(), 2u);
  // Each join has exactly one key pair.
  for (const PlannedJoin& j : (*plan)->joins) {
    EXPECT_EQ(j.probe_keys.size(), 1u);
  }
}

TEST(PlannerTest, ResidualOrPredicateAttachedAtJoin) {
  auto q = Bind(
      "SELECT sv FROM small, big WHERE sk = fk AND (sk > 90 OR bv < 0.1)");
  ASSERT_TRUE(q.ok());
  auto plan = PlanQuery(q->get(), nullptr);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ((*plan)->joins.size(), 1u);
  EXPECT_EQ((*plan)->joins[0].residual.size(), 1u);
}

std::vector<std::string> Rendered(const std::vector<ExprPtr>& exprs) {
  std::vector<std::string> out;
  for (const ExprPtr& e : exprs) out.push_back(e->ToString());
  return out;
}

TEST(PlannerTest, SharedOrConjunctsArePushedToTheirScan) {
  // Q19's shape: every disjunct repeats two conditions on big, which move
  // into big's scan; the per-disjunct remainder spans both tables.
  auto q = Bind(
      "SELECT sv FROM small, big WHERE sk = fk AND "
      "((sk = 1 AND bv < 1.5 AND fk > 3 AND bk >= 0) OR "
      " (sk = 2 AND bv > 2.5 AND fk > 3 AND bk >= 0) OR "
      " (bk >= 0 AND sk = 3 AND fk > 3 AND bv > 9.5))");
  ASSERT_TRUE(q.ok()) << q.status();
  auto plan = PlanQuery(q->get(), nullptr);
  ASSERT_TRUE(plan.ok()) << plan.status();
  // In the first disjunct's order.
  EXPECT_EQ(Rendered((*plan)->scans[1].conjuncts),
            (std::vector<std::string>{"(fk@3 > 3)", "(bk@2 >= 0)"}));
  EXPECT_TRUE((*plan)->scans[0].conjuncts.empty());
  ASSERT_EQ((*plan)->joins.size(), 1u);
  ASSERT_EQ((*plan)->joins[0].residual.size(), 1u);
  EXPECT_EQ((*plan)->joins[0].residual[0]->ToString(),
            "((((sk@0 = 1) AND (bv@4 < 1.5)) OR ((sk@0 = 2) AND "
            "(bv@4 > 2.5))) OR ((sk@0 = 3) AND (bv@4 > 9.5)))");
  // fk and bk are now filter attributes of big's scan.
  EXPECT_EQ((*plan)->scans[1].where_attrs, (std::vector<int>{0, 1}));
}

TEST(PlannerTest, OrAbsorptionKeepsTheSharedConjunctOnly) {
  auto q = Bind("SELECT sv FROM small WHERE sk > 3 OR (sk > 3 AND sv = 'x')");
  ASSERT_TRUE(q.ok());
  auto plan = PlanQuery(q->get(), nullptr);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(Rendered((*plan)->scans[0].conjuncts),
            (std::vector<std::string>{"(sk@0 > 3)"}));
  // sv is no longer filtered on, only projected.
  EXPECT_EQ((*plan)->scans[0].where_attrs, (std::vector<int>{0}));
}

TEST(PlannerTest, OrWithoutSharedConjunctIsLeftAlone) {
  const std::string sql =
      "SELECT sv FROM small WHERE (sk > 3 AND sv = 'a') OR "
      "(sk > 3 AND sv = 'b') OR sv = 'c'";
  auto q = Bind(sql);
  ASSERT_TRUE(q.ok());
  auto plan = PlanQuery(q->get(), nullptr);
  ASSERT_TRUE(plan.ok());
  auto untouched = Bind(sql);
  ASSERT_TRUE(untouched.ok());
  EXPECT_EQ(Rendered((*plan)->scans[0].conjuncts),
            (std::vector<std::string>{(*untouched)->where->ToString()}));
}

TEST(PlannerTest, OrConjunctsThatOnlyRenderAlikeAreNotFactored) {
  // Both IN lists render as "sv@1 IN (a, b)", yet they differ.
  const std::string sql =
      "SELECT sv FROM small WHERE (sk > 1 AND sv IN ('a', 'b')) OR "
      "(sk < 0 AND sv IN ('a, b'))";
  auto q = Bind(sql);
  ASSERT_TRUE(q.ok()) << q.status();
  auto plan = PlanQuery(q->get(), nullptr);
  ASSERT_TRUE(plan.ok());
  auto untouched = Bind(sql);
  ASSERT_TRUE(untouched.ok());
  ASSERT_EQ((*plan)->scans[0].conjuncts.size(), 1u);
  EXPECT_TRUE(SameExpr(*(*plan)->scans[0].conjuncts[0], *(*untouched)->where));
}

TEST(PlannerTest, AggHintBoundedByInputEstimate) {
  // NDV(bk) * NDV(fk) is about 100 * 100, far above big's 1000 rows.
  auto q = Bind("SELECT bk, fk, COUNT(*) FROM big GROUP BY bk, fk");
  ASSERT_TRUE(q.ok());
  FakeStats stats;
  stats.SetTable("big", *(*q)->tables[0].schema, 1000, 0, 1000, 100);
  auto plan = PlanQuery(q->get(), &stats);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->agg_strategy, AggStrategy::kHash);
  EXPECT_EQ((*plan)->agg_groups_hint, 1000u);
}

TEST(PlannerTest, PlanToStringMentionsOperators) {
  auto q = Bind(
      "SELECT sk, COUNT(*) AS n FROM small GROUP BY sk ORDER BY n LIMIT 3");
  ASSERT_TRUE(q.ok());
  auto plan = PlanQuery(q->get(), nullptr);
  ASSERT_TRUE(plan.ok());
  std::string text = (*plan)->ToString();
  EXPECT_NE(text.find("Scan small"), std::string::npos);
  EXPECT_NE(text.find("SortAggregate"), std::string::npos);
  EXPECT_NE(text.find("Sort"), std::string::npos);
  EXPECT_NE(text.find("Limit 3"), std::string::npos);
}

TEST(OptimizerTest, SelectivityHeuristicsWithoutStats) {
  auto q = Bind("SELECT sv FROM small WHERE sk > 3");
  ASSERT_TRUE(q.ok());
  auto plan = PlanQuery(q->get(), nullptr);
  ASSERT_TRUE(plan.ok());
  double sel = EstimateConjunctSelectivity(
      *(*plan)->scans[0].conjuncts[0], nullptr, 0);
  EXPECT_DOUBLE_EQ(sel, 0.33);
}

TEST(OptimizerTest, RangeSelectivityFromHistogram) {
  Schema schema{{"k", TypeId::kInt64}};
  TableStats stats(schema);
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    stats.AddValue(0, Value::Int64(rng.Uniform(0, 999)));
  }
  stats.FinalizeAll();

  auto q = Bind("SELECT sk FROM small WHERE sk < 100");
  ASSERT_TRUE(q.ok());
  auto plan = PlanQuery(q->get(), nullptr);
  ASSERT_TRUE(plan.ok());
  // Estimate the small<100 conjunct against the fabricated uniform stats.
  double sel = EstimateConjunctSelectivity(
      *(*plan)->scans[0].conjuncts[0], &stats, 0);
  EXPECT_NEAR(sel, 0.1, 0.05);
}

}  // namespace
}  // namespace nodb
