#include "exec/executor.h"

#include "exec/aggregate.h"
#include "exec/compact_scan.h"
#include "exec/hash_join.h"
#include "exec/heap_scan.h"
#include "exec/limit.h"
#include "exec/project.h"
#include "exec/raw_scan.h"
#include "exec/sort.h"

namespace nodb {

namespace {

Result<OperatorPtr> MakeScan(const PlannedScan& scan, TableResolver* resolver,
                             int working_width, const ExecOptions& options) {
  NODB_ASSIGN_OR_RETURN(TableRuntime* runtime,
                        resolver->GetTableRuntime(scan.table.table_name));
  switch (runtime->storage) {
    case TableStorage::kRaw: {
      // One scan operator for every raw format and thread count: the
      // table's adapter supplies the format-specific hooks, the scan the
      // adaptive machinery; with more than one scan thread its morsels are
      // decoded on the shared pool.
      const int threads = runtime->scan_threads_override > 0
                              ? runtime->scan_threads_override
                              : options.scan_threads;
      return OperatorPtr(std::make_unique<RawScanOp>(
          runtime, &scan, working_width, options.insitu, options.control,
          threads, options.scan_morsel_bytes, options.scan_pool));
    }
    case TableStorage::kHeap:
      return OperatorPtr(
          std::make_unique<HeapScanOp>(runtime, &scan, working_width));
    case TableStorage::kCompact:
      return OperatorPtr(
          std::make_unique<CompactScanOp>(runtime, &scan, working_width));
  }
  return Status::Internal("unknown table storage kind");
}

}  // namespace

Result<OperatorPtr> BuildPipeline(const PhysicalPlan& plan,
                                  TableResolver* resolver,
                                  const ExecOptions& options) {
  const BoundQuery& query = *plan.query;
  const int width = query.working_width;
  const size_t batch_size = options.batch_size;

  // Pipeline: driver scan, then hash joins in plan order.
  NODB_ASSIGN_OR_RETURN(
      OperatorPtr pipeline,
      MakeScan(plan.scans[plan.driver_scan], resolver, width, options));
  for (const PlannedJoin& join : plan.joins) {
    const PlannedScan& build = plan.scans[join.build_scan];
    NODB_ASSIGN_OR_RETURN(OperatorPtr build_op,
                          MakeScan(build, resolver, width, options));
    pipeline = std::make_unique<HashJoinOp>(
        std::move(pipeline), std::move(build_op), &join, build.table.offset,
        build.table.schema->num_columns(), batch_size, options.control);
  }

  // Semi/anti joins (EXISTS). Inner scans run in their own (table-arity)
  // row space.
  for (const PlannedSemiJoin& semi : plan.semi_joins) {
    NODB_ASSIGN_OR_RETURN(
        OperatorPtr inner,
        MakeScan(semi.inner, resolver,
                 semi.inner.table.schema->num_columns(), options));
    pipeline = std::make_unique<SemiJoinOp>(std::move(pipeline),
                                            std::move(inner), &semi,
                                            batch_size, options.control);
  }

  if (query.has_aggregation) {
    pipeline = std::make_unique<AggregateOp>(
        std::move(pipeline), &query.group_by, &query.aggregates,
        plan.agg_strategy, plan.agg_groups_hint, batch_size, options.control);
  }
  pipeline = std::make_unique<ProjectOp>(std::move(pipeline),
                                         &query.select_exprs);
  if (!query.order_by.empty()) {
    pipeline = std::make_unique<SortOp>(std::move(pipeline), &query.order_by,
                                        batch_size, options.control);
  }
  if (query.limit.has_value()) {
    pipeline = std::make_unique<LimitOp>(std::move(pipeline), *query.limit);
  }
  return pipeline;
}

}  // namespace nodb
