#include "storage/loader.h"

#include <numeric>
#include <vector>

#include "csv/csv_adapter.h"
#include "exec/raw_scan.h"
#include "util/stopwatch.h"

namespace nodb {

namespace {

/// Shared bulk-load driver: the scan's decode kernel, `append(row)` per
/// record.
template <typename AppendFn>
Result<LoadResult> LoadCsv(const std::string& csv_path,
                           const CsvDialect& dialect, const Schema& schema,
                           const ParseKernels* kernels, AppendFn&& append) {
  Stopwatch timer;
  NODB_ASSIGN_OR_RETURN(
      std::unique_ptr<CsvAdapter> adapter,
      CsvAdapter::Make(csv_path, schema, dialect, nullptr, kernels));
  const int ncols = schema.num_columns();
  std::vector<int> attrs(ncols);
  std::iota(attrs.begin(), attrs.end(), 0);
  NODB_ASSIGN_OR_RETURN(
      uint64_t rows,
      ForEachRawStripe(*adapter, attrs, RawScanOp::kDefaultStripe, nullptr,
                       [&](uint64_t, MorselResult& stripe) -> Status {
                         for (size_t r = 0; r < stripe.num_rows; ++r) {
                           NODB_RETURN_IF_ERROR(append(stripe.rows[r]));
                         }
                         return Status::OK();
                       }));
  LoadResult result;
  result.rows = rows;
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace

Result<LoadResult> LoadCsvToHeap(const std::string& csv_path,
                                 const CsvDialect& dialect, TableHeap* heap,
                                 const ParseKernels* kernels) {
  NODB_ASSIGN_OR_RETURN(
      LoadResult result,
      LoadCsv(csv_path, dialect, heap->schema(), kernels,
              [heap](const Row& row) { return heap->Append(row); }));
  Stopwatch finish;
  NODB_RETURN_IF_ERROR(heap->FinishLoad());
  result.seconds += finish.ElapsedSeconds();
  return result;
}

Result<LoadResult> LoadCsvToCompact(const std::string& csv_path,
                                    const CsvDialect& dialect,
                                    CompactTable* table,
                                    const ParseKernels* kernels) {
  NODB_ASSIGN_OR_RETURN(
      LoadResult result,
      LoadCsv(csv_path, dialect, table->schema(), kernels,
              [table](const Row& row) { return table->Append(row); }));
  Stopwatch finish;
  NODB_RETURN_IF_ERROR(table->FinishLoad());
  result.seconds += finish.ElapsedSeconds();
  return result;
}

}  // namespace nodb
