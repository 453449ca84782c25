#include "adaptive/promoter.h"

#include <algorithm>
#include <memory>

#include "cache/column_cache.h"
#include "exec/raw_scan.h"

namespace nodb {

TablePromotionReport RunTablePromotionCycle(TableRuntime* rt,
                                            const PromotionConfig& cfg,
                                            const std::atomic<bool>* stop) {
  TablePromotionReport report;
  report.table = rt->name;
  PromotedColumns* store = rt->promoted.get();
  ColumnAccessTracker* tracker = rt->access.get();
  if (rt->storage != TableStorage::kRaw || store == nullptr ||
      tracker == nullptr || rt->adapter == nullptr) {
    report.promoted_bytes = store != nullptr ? store->memory_bytes() : 0;
    return report;
  }
  const Schema& schema = rt->schema;
  const int ncols = schema.num_columns();
  const int tpc = rt->tuples_per_chunk;

  uint64_t budget = cfg.budget_bytes;
  if (budget == 0) {
    budget = rt->cache != nullptr ? rt->cache->budget_bytes() : UINT64_MAX;
  }

  std::vector<ColumnAccessCounters> access = tracker->SnapshotAll();
  std::vector<PromotedColumns::ColumnInfo> info = store->InfoSnapshot();

  const int64_t known_rows = rt->row_count.load();
  std::vector<ColumnPromotionInput> inputs(ncols);
  for (int a = 0; a < ncols; ++a) {
    ColumnPromotionInput& in = inputs[a];
    in.attr = a;
    in.promoted = info[a].promoted;
    in.scans = access[a].scans;
    in.parse_work = access[a].ParseWork();
    in.work_mark = info[a].work_mark;
    in.served_rows = access[a].rows_from_promoted;
    in.served_mark = info[a].served_mark;
    if (info[a].promoted) {
      in.est_bytes = info[a].bytes;
    } else {
      // Estimated promoted size: rows x binary value width (+ average text
      // length for strings), falling back to the observed text volume when
      // no row count is known yet.
      uint64_t rows_est =
          known_rows > 0
              ? static_cast<uint64_t>(known_rows)
              : (access[a].scans > 0
                     ? access[a].rows_parsed /
                           std::max<uint64_t>(access[a].scans, 1)
                     : 0);
      uint64_t per_row = sizeof(Value);
      if (schema.column(a).type == TypeId::kString &&
          access[a].rows_parsed > 0) {
        per_row += access[a].bytes_parsed / access[a].rows_parsed;
      }
      in.est_bytes = rows_est > 0
                         ? rows_est * per_row
                         : std::max<uint64_t>(access[a].bytes_parsed, 1);
    }
  }

  PromotionPlan plan =
      PlanPromotions(inputs, store->memory_bytes(), budget, cfg);

  for (int a : plan.demote) {
    store->Demote(a);
    report.demoted.push_back(a);
    // Consume the demoted column's accrued work so it doesn't bounce right
    // back next cycle (promote/demote thrash); it must earn promotion with
    // fresh accesses.
    store->SetMarks(a, inputs[a].parse_work, access[a].rows_from_promoted);
  }

  if (!plan.promote.empty()) {
    std::vector<int> attrs = plan.promote;
    std::sort(attrs.begin(), attrs.end());
    const int nslots = static_cast<int>(attrs.size());

    // One sweep over the raw file loads every chosen column through the
    // scan's own decode kernel (same NULL/error semantics), one promoted
    // chunk per stripe. Each stripe's row starts install as a spine
    // fragment through the epoch-protected path, warming the positional
    // map like a scan would.
    std::vector<std::vector<PromotedColumns::Chunk>> cols(nslots);
    PositionalMap* pm = rt->pmap.get();
    const uint64_t epoch = pm != nullptr ? pm->BeginEpoch() : 0;
    Result<uint64_t> swept = ForEachRawStripe(
        *rt->adapter, attrs, tpc, pm,
        [&](uint64_t first, MorselResult& stripe) -> Status {
          for (int s = 0; s < nslots; ++s) {
            std::vector<Value> chunk;
            chunk.reserve(stripe.num_rows);
            for (size_t r = 0; r < stripe.num_rows; ++r) {
              chunk.push_back(std::move(stripe.rows[r][attrs[s]]));
            }
            cols[s].push_back(
                std::make_shared<const std::vector<Value>>(std::move(chunk)));
          }
          if (pm != nullptr) pm->InstallFragment(stripe.frag, first, epoch);
          return Status::OK();
        },
        stop);

    const uint64_t total = swept.ok() ? swept.value() : 0;
    if (pm != nullptr) pm->EndEpoch(epoch);

    if (swept.ok() && total > 0) {
      rt->row_count = static_cast<int64_t>(total);
      for (int s = 0; s < nslots; ++s) {
        int a = attrs[s];
        uint64_t bytes = 0;
        for (const PromotedColumns::Chunk& ch : cols[s]) {
          bytes += ColumnCache::BytesOf(*ch, schema.column(a).type);
        }
        store->Install(a, std::move(cols[s]), bytes);
        report.promoted.push_back(a);
        // A promoted column fully supersedes its cache chunks: release
        // them so the shared budget isn't charged twice for the same data.
        if (rt->cache != nullptr) {
          report.cache_released_bytes += rt->cache->ReleaseAttr(a);
        }
      }
    } else if (!swept.ok()) {
      report.status = swept.status();
    }
    // Consume the observed work either way — a load that failed (malformed
    // text, cancellation) must not make every later cycle retry hot.
    for (int a : attrs) {
      store->SetMarks(a, inputs[a].parse_work, access[a].rows_from_promoted);
    }
  }

  // Refresh every promoted column's served mark so the next cycle judges
  // coldness against reads made since *this* cycle, then settle the
  // shared-budget reservation.
  for (int a : store->promoted_attrs()) {
    store->SetMarks(a, inputs[a].parse_work,
                    tracker->Snapshot(a).rows_from_promoted);
  }
  if (rt->cache != nullptr && cfg.budget_bytes == 0) {
    rt->cache->SetReservedBytes(store->memory_bytes());
  }
  report.promoted_bytes = store->memory_bytes();
  return report;
}

}  // namespace nodb
