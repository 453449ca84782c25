#include "plan/planner.h"

#include "plan/optimizer.h"

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <unordered_set>
#include <utility>

namespace nodb {

namespace {

bool IsLogical(const Expr& e, LogicalOp op) {
  return e.kind == ExprKind::kLogical &&
         static_cast<const LogicalExpr&>(e).op == op;
}

/// Moves the operands of the top-level `op` chain of `e` into `out`.
void Flatten(ExprPtr e, LogicalOp op, std::vector<ExprPtr>* out) {
  if (IsLogical(*e, op)) {
    auto* logical = static_cast<LogicalExpr*>(e.get());
    Flatten(std::move(logical->left), op, out);
    Flatten(std::move(logical->right), op, out);
    return;
  }
  out->push_back(std::move(e));
}

/// Left-deep `op` chain over `operands` (non-empty).
ExprPtr Fold(std::vector<ExprPtr> operands, LogicalOp op) {
  ExprPtr acc = std::move(operands[0]);
  for (size_t i = 1; i < operands.size(); ++i) {
    acc = std::make_unique<LogicalExpr>(op, std::move(acc),
                                        std::move(operands[i]));
  }
  return acc;
}

/// Moves the top-level AND conjuncts of `e` into `out`, factoring out of each
/// OR the conjuncts that every disjunct shares: (A AND X) OR (A AND Y)
/// yields A and (X OR Y), and A OR (A AND B) yields just A (absorption).
/// Both rewrites hold in SQL's three-valued logic, and they let step 2 push
/// a shared single-table conjunct into its scan.
void SplitAnd(ExprPtr e, std::vector<ExprPtr>* out) {
  if (e == nullptr) return;
  std::vector<ExprPtr> conjuncts;
  Flatten(std::move(e), LogicalOp::kAnd, &conjuncts);
  for (ExprPtr& conj : conjuncts) {
    if (!IsLogical(*conj, LogicalOp::kOr)) {
      out->push_back(std::move(conj));
      continue;
    }
    // Split every disjunct into its conjuncts. `common` holds, once each,
    // the first disjunct's conjuncts that every other disjunct also has
    // (matched with SameExpr), so the factored ones keep its order.
    std::vector<ExprPtr> disjuncts;
    Flatten(std::move(conj), LogicalOp::kOr, &disjuncts);
    std::vector<std::vector<ExprPtr>> terms(disjuncts.size());
    for (size_t d = 0; d < disjuncts.size(); ++d) {
      Flatten(std::move(disjuncts[d]), LogicalOp::kAnd, &terms[d]);
    }
    auto has = [](const auto& list, const Expr& e) {
      return std::any_of(list.begin(), list.end(),
                         [&](const auto& x) { return SameExpr(*x, e); });
    };
    std::vector<const Expr*> common;
    for (const ExprPtr& t : terms[0]) {
      if (has(common, *t)) continue;
      if (std::all_of(terms.begin() + 1, terms.end(),
                      [&](const auto& other) { return has(other, *t); })) {
        common.push_back(t.get());
      }
    }
    // The first disjunct's copies move to `factored`; every other copy (and
    // duplicate) is dropped. With nothing in common the OR is rebuilt whole
    // (left-deep, as the parser nests it).
    std::vector<ExprPtr> factored;
    std::vector<ExprPtr> remainders;
    bool absorbed = false;
    for (std::vector<ExprPtr>& disjunct : terms) {
      std::vector<ExprPtr> rest;
      for (ExprPtr& t : disjunct) {
        if (std::find(common.begin(), common.end(), t.get()) != common.end()) {
          factored.push_back(std::move(t));
        } else if (!has(common, *t)) {
          rest.push_back(std::move(t));
        }
      }
      if (rest.empty()) {
        absorbed = true;
      } else {
        remainders.push_back(Fold(std::move(rest), LogicalOp::kAnd));
      }
    }
    // A factored conjunct may itself be an OR with shared conjuncts.
    for (ExprPtr& f : factored) SplitAnd(std::move(f), out);
    if (!absorbed) out->push_back(Fold(std::move(remainders), LogicalOp::kOr));
  }
}

/// Set of FROM-table indices referenced by `e`, given table offsets.
std::set<int> TablesOf(const Expr& e, const std::vector<BoundTable>& tables) {
  std::vector<int> cols;
  e.CollectColumns(&cols);
  std::set<int> result;
  for (int col : cols) {
    for (size_t t = 0; t < tables.size(); ++t) {
      int lo = tables[t].offset;
      int hi = lo + tables[t].schema->num_columns();
      if (col >= lo && col < hi) {
        result.insert(static_cast<int>(t));
        break;
      }
    }
  }
  return result;
}

/// An equality conjunct joining two tables.
struct JoinEdge {
  int t1, t2;
  ExprPtr e1, e2;  // e1 references t1, e2 references t2
};

/// A conjunct spanning >= 2 tables that is not a plain equi-join.
struct Residual {
  std::set<int> tables;
  ExprPtr expr;
  bool applied = false;
};

}  // namespace

Result<std::unique_ptr<PhysicalPlan>> PlanQuery(BoundQuery* query,
                                                const StatsProvider* stats) {
  auto plan = std::make_unique<PhysicalPlan>();
  plan->query = query;
  int ntables = static_cast<int>(query->tables.size());

  // 1. One scan per table.
  plan->scans.resize(ntables);
  for (int t = 0; t < ntables; ++t) {
    plan->scans[t].table = query->tables[t];
  }

  // 2. Distribute WHERE conjuncts.
  std::vector<ExprPtr> conjuncts;
  SplitAnd(std::move(query->where), &conjuncts);
  query->where = nullptr;
  std::vector<JoinEdge> edges;
  std::vector<Residual> residuals;
  for (ExprPtr& conj : conjuncts) {
    std::set<int> tset = TablesOf(*conj, query->tables);
    if (tset.size() <= 1) {
      int t = tset.empty() ? 0 : *tset.begin();
      // Constant predicates go to the first scan (evaluated once per row;
      // they are rare and usually trivially true/false).
      plan->scans[t].conjuncts.push_back(std::move(conj));
      continue;
    }
    if (tset.size() == 2 && conj->kind == ExprKind::kComparison) {
      auto* cmp = static_cast<ComparisonExpr*>(conj.get());
      if (cmp->op == CompareOp::kEq) {
        std::set<int> lt = TablesOf(*cmp->left, query->tables);
        std::set<int> rt = TablesOf(*cmp->right, query->tables);
        if (lt.size() == 1 && rt.size() == 1 && *lt.begin() != *rt.begin()) {
          JoinEdge edge;
          edge.t1 = *lt.begin();
          edge.t2 = *rt.begin();
          edge.e1 = std::move(cmp->left);
          edge.e2 = std::move(cmp->right);
          edges.push_back(std::move(edge));
          continue;
        }
      }
    }
    residuals.push_back(Residual{std::move(tset), std::move(conj), false});
  }

  // 3. Estimate per-scan output cardinalities (stats permitting) and order
  //    pushed conjuncts most-selective-first.
  for (int t = 0; t < ntables; ++t) {
    PlannedScan& scan = plan->scans[t];
    const TableStats* ts =
        stats != nullptr ? stats->GetTableStats(scan.table.table_name)
                         : nullptr;
    double rows =
        stats != nullptr ? stats->GetRowCount(scan.table.table_name) : -1;
    if (ts != nullptr && !scan.conjuncts.empty()) {
      // Evaluation cost on a selectivity tie: a conjunct whose columns are
      // all served from a promoted columnar representation costs no
      // tokenizing/parsing, so it goes first among equals.
      auto promoted_rank = [&](const Expr& c) {
        std::vector<int> cols;
        c.CollectColumns(&cols);
        if (cols.empty()) return 1;
        for (int col : cols) {
          if (!stats->IsColumnPromoted(scan.table.table_name,
                                       col - scan.table.offset)) {
            return 1;
          }
        }
        return 0;
      };
      std::vector<std::tuple<double, int, ExprPtr>> ranked;
      ranked.reserve(scan.conjuncts.size());
      for (ExprPtr& c : scan.conjuncts) {
        double sel = EstimateConjunctSelectivity(*c, ts, scan.table.offset);
        int rank = promoted_rank(*c);
        ranked.emplace_back(sel, rank, std::move(c));
      }
      std::stable_sort(ranked.begin(), ranked.end(),
                       [](const auto& a, const auto& b) {
                         if (std::get<0>(a) != std::get<0>(b)) {
                           return std::get<0>(a) < std::get<0>(b);
                         }
                         return std::get<1>(a) < std::get<1>(b);
                       });
      scan.conjuncts.clear();
      double combined = 1.0;
      for (auto& [sel, rank, c] : ranked) {
        combined *= sel;
        scan.conjuncts.push_back(std::move(c));
      }
      if (rows >= 0) scan.est_rows = rows * combined;
    } else if (rows >= 0) {
      scan.est_rows = scan.conjuncts.empty() ? rows : rows * 0.33;
    }
  }

  // 4. Join order: the input with the largest known estimate drives the
  //    pipeline, and each next join builds the connected input with the
  //    smallest estimate, so hash tables hold the small sides. An unknown
  //    estimate counts as largest: it is never hashed while a bounded input
  //    is available, yet never drives ahead of a known one. FROM order
  //    breaks ties, so without estimates the order is the FROM order.
  std::vector<bool> placed(ntables, false);
  auto est_of = [&](int t) {
    return plan->scans[t].est_rows >= 0 ? plan->scans[t].est_rows : 1e18;
  };
  int driver = 0;
  for (int t = 1; t < ntables; ++t) {
    if (plan->scans[t].est_rows > plan->scans[driver].est_rows) driver = t;
  }
  plan->driver_scan = driver;
  placed[driver] = true;
  std::set<int> current = {driver};

  auto connected = [&](int t) {
    for (const JoinEdge& e : edges) {
      if ((e.t1 == t && current.count(e.t2)) ||
          (e.t2 == t && current.count(e.t1))) {
        return true;
      }
    }
    return false;
  };

  for (int step = 1; step < ntables; ++step) {
    int next = -1;
    for (int t = 0; t < ntables; ++t) {
      if (placed[t] || !connected(t)) continue;
      if (next < 0 || est_of(t) < est_of(next)) next = t;
    }
    if (next < 0) {
      // No connected table: fall back to the first unplaced (cross join).
      for (int t = 0; t < ntables; ++t) {
        if (!placed[t]) {
          next = t;
          break;
        }
      }
    }
    PlannedJoin join;
    join.build_scan = next;
    for (JoinEdge& e : edges) {
      if (e.e1 == nullptr) continue;  // already consumed
      if (e.t1 == next && current.count(e.t2)) {
        join.build_keys.push_back(std::move(e.e1));
        join.probe_keys.push_back(std::move(e.e2));
      } else if (e.t2 == next && current.count(e.t1)) {
        join.build_keys.push_back(std::move(e.e2));
        join.probe_keys.push_back(std::move(e.e1));
      }
    }
    placed[next] = true;
    current.insert(next);
    // Attach residual conjuncts that became evaluable.
    for (Residual& r : residuals) {
      if (r.applied) continue;
      bool covered = std::all_of(r.tables.begin(), r.tables.end(),
                                 [&](int t) { return current.count(t) > 0; });
      if (covered) {
        join.residual.push_back(std::move(r.expr));
        r.applied = true;
      }
    }
    plan->joins.push_back(std::move(join));
  }
  for (Residual& r : residuals) {
    if (!r.applied) {
      return Status::Internal("residual predicate was never applied");
    }
  }

  // 5. Semi joins (EXISTS).
  for (BoundSemiJoin& sj : query->semi_joins) {
    PlannedSemiJoin planned;
    planned.anti = sj.anti;
    planned.inner.table = sj.table;
    SplitAnd(std::move(sj.inner_filter), &planned.inner.conjuncts);
    planned.outer_keys = std::move(sj.outer_keys);
    planned.inner_keys = std::move(sj.inner_keys);
    plan->semi_joins.push_back(std::move(planned));
  }
  query->semi_joins.clear();

  // 6. Needed columns per table: WHERE-phase from pushed conjuncts, payload
  //    from everything else that touches the table.
  {
    std::vector<std::set<int>> where_cols(ntables), all_cols(ntables);
    auto bucket = [&](const std::vector<int>& cols,
                      std::vector<std::set<int>>* dest) {
      for (int col : cols) {
        for (int t = 0; t < ntables; ++t) {
          int lo = query->tables[t].offset;
          int hi = lo + query->tables[t].schema->num_columns();
          if (col >= lo && col < hi) {
            (*dest)[t].insert(col - lo);
            break;
          }
        }
      }
    };
    std::vector<int> scratch;
    auto collect = [&](const Expr& e, std::vector<std::set<int>>* dest) {
      scratch.clear();
      e.CollectColumns(&scratch);
      bucket(scratch, dest);
    };

    for (int t = 0; t < ntables; ++t) {
      for (const ExprPtr& c : plan->scans[t].conjuncts) {
        collect(*c, &where_cols);
        collect(*c, &all_cols);
      }
    }
    for (const PlannedJoin& j : plan->joins) {
      for (const ExprPtr& k : j.probe_keys) collect(*k, &all_cols);
      for (const ExprPtr& k : j.build_keys) collect(*k, &all_cols);
      for (const ExprPtr& r : j.residual) collect(*r, &all_cols);
    }
    for (const PlannedSemiJoin& s : plan->semi_joins) {
      for (const ExprPtr& k : s.outer_keys) collect(*k, &all_cols);
    }
    for (const ExprPtr& g : query->group_by) collect(*g, &all_cols);
    for (const AggregateSpec& a : query->aggregates) {
      if (a.arg != nullptr) collect(*a.arg, &all_cols);
    }
    if (!query->has_aggregation) {
      for (const ExprPtr& s : query->select_exprs) collect(*s, &all_cols);
    }

    for (int t = 0; t < ntables; ++t) {
      PlannedScan& scan = plan->scans[t];
      for (int c : where_cols[t]) scan.where_attrs.push_back(c);
      for (int c : all_cols[t]) {
        if (!where_cols[t].count(c)) scan.payload_attrs.push_back(c);
      }
    }
    // Semi-join inner scans: local index space (offset 0 by construction).
    for (PlannedSemiJoin& s : plan->semi_joins) {
      std::set<int> inner_where, inner_all;
      std::vector<int> cols;
      for (const ExprPtr& c : s.inner.conjuncts) {
        cols.clear();
        c->CollectColumns(&cols);
        inner_where.insert(cols.begin(), cols.end());
        inner_all.insert(cols.begin(), cols.end());
      }
      for (const ExprPtr& k : s.inner_keys) {
        cols.clear();
        k->CollectColumns(&cols);
        inner_all.insert(cols.begin(), cols.end());
      }
      for (int c : inner_where) s.inner.where_attrs.push_back(c);
      for (int c : inner_all) {
        if (!inner_where.count(c)) s.inner.payload_attrs.push_back(c);
      }
    }
  }

  // 7. Aggregation strategy. Without statistics the planner cannot bound the
  //    group count and conservatively sorts (except for global aggregation,
  //    which has exactly one group); with statistics it hash-aggregates with
  //    a capacity hint — the plan switch behind the paper's Fig. 12.
  if (query->has_aggregation) {
    // A stats *provider* is not the same as having statistics: the tables
    // the GROUP BY columns come from must actually have been analyzed
    // (loaded, or touched by a previous in-situ query).
    bool group_tables_analyzed = stats != nullptr;
    if (stats != nullptr) {
      std::vector<int> cols;
      for (const ExprPtr& g : query->group_by) g->CollectColumns(&cols);
      for (int col : cols) {
        for (const BoundTable& t : query->tables) {
          int lo = t.offset, hi = t.offset + t.schema->num_columns();
          if (col >= lo && col < hi) {
            if (stats->GetTableStats(t.table_name) == nullptr) {
              group_tables_analyzed = false;
            }
            break;
          }
        }
      }
    }
    if (query->group_by.empty()) {
      plan->agg_strategy = AggStrategy::kHash;
      plan->agg_groups_hint = 1;
    } else if (!group_tables_analyzed) {
      plan->agg_strategy = AggStrategy::kSort;
    } else {
      plan->agg_strategy = AggStrategy::kHash;
      double groups = 1.0;
      bool known = true;
      for (const ExprPtr& g : query->group_by) {
        if (g->kind != ExprKind::kColumnRef) {
          known = false;
          break;
        }
        int idx = static_cast<const ColumnRefExpr*>(g.get())->index;
        double ndv = -1;
        for (const BoundTable& t : query->tables) {
          int lo = t.offset, hi = t.offset + t.schema->num_columns();
          if (idx >= lo && idx < hi) {
            const TableStats* ts = stats->GetTableStats(t.table_name);
            if (ts != nullptr && ts->Attr(idx - lo) != nullptr) {
              ndv = ts->Attr(idx - lo)->ndv;
            }
            break;
          }
        }
        if (ndv < 0) {
          known = false;
          break;
        }
        groups *= std::max(1.0, ndv);
      }
      // Sizing heuristic: cap the hint at the driver's estimate, so that the
      // table does not reserve buckets it never fills. This assumes the
      // joins are key/foreign-key joins, which keep the pipeline at about
      // the driver's size; when they do not (or the estimate is low), the
      // hash table simply grows past the hint.
      double cap = 1e7;
      double input = plan->scans[plan->driver_scan].est_rows;
      if (input >= 0) cap = std::clamp(input, 1.0, cap);
      plan->agg_groups_hint =
          static_cast<size_t>(std::min(known ? groups : 1024.0, cap));
    }
  }

  return plan;
}

}  // namespace nodb
