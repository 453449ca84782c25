#ifndef NODB_PLAN_PLANNER_H_
#define NODB_PLAN_PLANNER_H_

#include <memory>
#include <string>

#include "plan/logical_plan.h"
#include "sql/binder.h"
#include "stats/table_stats.h"

namespace nodb {

/// Supplies (possibly adaptive, possibly absent) statistics to the planner.
/// The engine returns nullptr when statistics collection is disabled or the
/// attribute has never been scanned — exactly the situation of a raw file
/// before its first query (§4.4).
class StatsProvider {
 public:
  virtual ~StatsProvider() = default;

  /// Per-attribute statistics for `table_name`, or nullptr.
  virtual const TableStats* GetTableStats(const std::string& table_name) const = 0;

  /// Row count if known (exact for loaded tables, discovered after the
  /// first full scan for raw tables); negative when unknown.
  virtual double GetRowCount(const std::string& table_name) const = 0;

  /// True when the attribute is served from a promoted in-memory columnar
  /// representation (src/adaptive) — evaluating a predicate on it costs no
  /// tokenizing or parsing, so the planner prefers it on selectivity ties.
  virtual bool IsColumnPromoted(const std::string& table_name,
                                int attr) const {
    (void)table_name;
    (void)attr;
    return false;
  }
};

/// Turns a bound query into an executable plan:
///  * factors the conjuncts every disjunct of an OR shares out of it, then
///    pushes single-table conjuncts into scans (and orders them by
///    estimated selectivity when statistics exist),
///  * extracts equi-join edges and orders joins by estimated cardinality:
///    the largest known input drives, each join builds the smallest
///    connected input (FROM order when estimates are absent),
///  * computes per-table needed columns, split into WHERE-phase and
///    payload-phase attributes (driving the in-situ scan's selective
///    tokenizing/parsing/tuple formation),
///  * picks the aggregation strategy (hash with a size hint when statistics
///    bound the group count, conservative sort otherwise — the paper's
///    Fig. 12 plan difference).
///
/// Moves filter/semi-join expressions out of `query`; `query` must stay
/// alive while the returned plan executes.
Result<std::unique_ptr<PhysicalPlan>> PlanQuery(BoundQuery* query,
                                                const StatsProvider* stats);

}  // namespace nodb

#endif  // NODB_PLAN_PLANNER_H_
