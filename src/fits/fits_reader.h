#ifndef NODB_FITS_FITS_READER_H_
#define NODB_FITS_FITS_READER_H_

#include <memory>
#include <string>
#include <vector>

#include "fits/fits_format.h"
#include "io/buffered_reader.h"
#include "io/file.h"
#include "util/result.h"

namespace nodb {

/// Streaming row reader over a FITS binary table, used only by the FITS
/// format tests as an independent decoder; the in-situ scan reads FITS
/// through FitsAdapter (fits_adapter.h) and the shared raw-scan kernel.
/// Field positions are computed, never tokenized — the structural
/// difference from CSV that §5.3 highlights.
class FitsReader {
 public:
  /// `file` must outlive the reader; `info` is the parsed header.
  FitsReader(const RandomAccessFile* file, const FitsTableInfo* info);

  /// Decodes the columns selected by `needed` (table arity) of row `row_idx`
  /// into `*row` (full arity, unneeded columns NULL).
  Status ReadRow(uint64_t row_idx, const std::vector<bool>& needed, Row* row);

  uint64_t num_rows() const { return info_->num_rows; }

 private:
  const FitsTableInfo* info_;
  BufferedReader reader_;
};

}  // namespace nodb

#endif  // NODB_FITS_FITS_READER_H_
