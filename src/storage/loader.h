#ifndef NODB_STORAGE_LOADER_H_
#define NODB_STORAGE_LOADER_H_

#include <cstdint>
#include <string>

#include "csv/dialect.h"
#include "storage/compact_table.h"
#include "storage/table_heap.h"
#include "util/result.h"

namespace nodb {

struct ParseKernels;

/// Outcome of a bulk load.
struct LoadResult {
  uint64_t rows = 0;
  double seconds = 0;
};

/// Bulk-loads a CSV file into a slotted-page heap — the a-priori "COPY" that
/// traditional engines require before the first query (and whose cost NoDB
/// eliminates). Every attribute of every tuple is tokenized, parsed to
/// binary and written out, exactly the work the paper charges to the
/// loaded-DBMS baselines. Decoding runs the raw scan's own decode kernel
/// over the CSV adapter (ForEachRawStripe), so ragged/malformed rows load
/// exactly as the raw scan would have answered them. `kernels` selects the tokenize/parse path
/// (raw/parse_kernels.h); null means the process-wide active table.
Result<LoadResult> LoadCsvToHeap(const std::string& csv_path,
                                 const CsvDialect& dialect, TableHeap* heap,
                                 const ParseKernels* kernels = nullptr);

/// Same, into the packed "DBMS X" format.
Result<LoadResult> LoadCsvToCompact(const std::string& csv_path,
                                    const CsvDialect& dialect,
                                    CompactTable* table,
                                    const ParseKernels* kernels = nullptr);

}  // namespace nodb

#endif  // NODB_STORAGE_LOADER_H_
