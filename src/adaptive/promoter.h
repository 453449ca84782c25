#ifndef NODB_ADAPTIVE_PROMOTER_H_
#define NODB_ADAPTIVE_PROMOTER_H_

#include <atomic>
#include <string>
#include <vector>

#include "adaptive/promotion_policy.h"
#include "exec/table_runtime.h"
#include "util/status.h"

namespace nodb {

/// What one promotion cycle did to one table (returned by
/// Database::RunPromotionCycle for tests and tooling; aggregated into
/// STATS).
struct TablePromotionReport {
  std::string table;
  std::vector<int> promoted;
  std::vector<int> demoted;
  /// Resident bytes of the promoted store after the cycle.
  uint64_t promoted_bytes = 0;
  /// Cache bytes freed because promoted columns superseded their chunks.
  uint64_t cache_released_bytes = 0;
  /// First error hit while loading (the cycle is abandoned; already
  /// installed columns stay). OK when nothing went wrong.
  Status status = Status::OK();
};

/// Runs one promotion cycle over a raw table: snapshots the access
/// counters, plans promotions/demotions (PlanPromotions), loads the chosen
/// columns from the raw source in a single sweep of the scan's decode
/// kernel (ForEachRawStripe — so promoted answers are byte-identical),
/// installs them into the PromotedColumns store, and settles the shared
/// byte budget: the promoted columns' ColumnCache chunks are released and
/// the store's residency is reserved out of the cache budget. Row starts
/// discovered during the load are installed into the positional map
/// through the epoch-protected fragment path, so a cycle racing live scans
/// follows the same rules as a concurrent scan.
///
/// Safe to call concurrently with queries; callers serialize cycles per
/// table (the Database promoter thread or explicit RunPromotionCycle calls
/// hold the catalog lock). `stop` aborts a long load co-operatively.
TablePromotionReport RunTablePromotionCycle(
    TableRuntime* rt, const PromotionConfig& cfg,
    const std::atomic<bool>* stop = nullptr);

}  // namespace nodb

#endif  // NODB_ADAPTIVE_PROMOTER_H_
