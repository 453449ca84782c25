#include "snapshot/snapshot.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "adaptive/column_access.h"
#include "io/file.h"
#include "io/inflate_file.h"
#include "util/fs_util.h"

namespace nodb {

std::string_view SnapshotStateName(SnapshotState state) {
  switch (state) {
    case SnapshotState::kNone:
      return "none";
    case SnapshotState::kLoaded:
      return "loaded";
    case SnapshotState::kStale:
      return "stale";
    case SnapshotState::kCorrupt:
      return "corrupt";
  }
  return "unknown";
}

namespace {

constexpr char kMagic[8] = {'N', 'O', 'D', 'B', 'S', 'N', 'A', 'P'};
/// v2 appends an optional per-column access-counter section after the
/// stats section. v3 appends an optional gzip checkpoint-index section
/// (decompression restart points for compressed sources, src/io). Older
/// files (missing sections) still load; the omitted state simply starts
/// cold. Anything else is rejected as stale.
constexpr uint32_t kVersion = 3;
constexpr uint32_t kMinVersion = 1;
constexpr size_t kHeaderBytes = 40;
constexpr uint64_t kSampleBytes = 64 * 1024;  // fingerprint head/tail window

// ------------------------------------------------------------------
// Byte-level encode/decode (fixed-width little-endian, as spill files)
// ------------------------------------------------------------------

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out->append(b, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out->append(b, 8);
}

void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutStr(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Bounds-checked sequential reader. Every accessor returns a zero value
/// and latches !ok() on underrun; callers check ok() once per section, and
/// must validate element counts against remaining() before bulk resizes so
/// a hostile length field cannot trigger a giant allocation. (The payload
/// checksum is verified before any decoding, so in practice a failure here
/// means a format-version mismatch — same safe answer: corrupt.)
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size() - pos_; }

  bool ReadBytes(void* out, size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return false;
    }
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  uint8_t U8() {
    uint8_t v = 0;
    ReadBytes(&v, 1);
    return v;
  }
  uint32_t U32() {
    uint32_t v = 0;
    ReadBytes(&v, 4);
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    ReadBytes(&v, 8);
    return v;
  }
  int64_t I64() { return static_cast<int64_t>(U64()); }

  std::string Str() {
    uint32_t n = U32();
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return std::string();
    }
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  size_t pos() const { return pos_; }

  /// A view of already-validated bytes [from, to); used to hand column
  /// slices to the parallel decoders.
  std::string_view Slice(size_t from, size_t to) const {
    return data_.substr(from, to - from);
  }

  bool Skip(size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  /// Like ReadBytes but returns a view into the payload instead of copying.
  std::string_view Bytes(size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return std::string_view();
    }
    std::string_view v = data_.substr(pos_, n);
    pos_ += n;
    return v;
  }

  bool ReadU64Vec(std::vector<uint64_t>* out, size_t n) {
    if (!ok_ || remaining() < n * sizeof(uint64_t)) {
      ok_ = false;
      return false;
    }
    out->resize(n);
    return ReadBytes(out->data(), n * sizeof(uint64_t));
  }

  bool ReadU32Vec(std::vector<uint32_t>* out, size_t n) {
    if (!ok_ || remaining() < n * sizeof(uint32_t)) {
      ok_ = false;
      return false;
    }
    out->resize(n);
    return ReadBytes(out->data(), n * sizeof(uint32_t));
  }

 private:
  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ------------------------------------------------------------------
// Typed value columns (cache chunks) and single values (stats min/max)
// ------------------------------------------------------------------

uint64_t FixedPayloadOf(const Value& v) {
  if (v.type() == TypeId::kDouble) {
    double d = v.f64();
    uint64_t bits;
    std::memcpy(&bits, &d, 8);
    return bits;
  }
  return static_cast<uint64_t>(v.int64());
}

Value FixedValueOf(TypeId type, uint64_t payload) {
  switch (type) {
    case TypeId::kDouble: {
      double d;
      std::memcpy(&d, &payload, 8);
      return Value::Double(d);
    }
    case TypeId::kDate:
      return Value::Date(static_cast<int32_t>(payload));
    case TypeId::kBool:
      return Value::Bool(payload != 0);
    default:
      return Value::Int64(static_cast<int64_t>(payload));
  }
}

void PutColumn(std::string* out, TypeId type,
               const std::vector<Value>& values) {
  PutU8(out, static_cast<uint8_t>(type));
  const size_t n = values.size();
  PutU32(out, static_cast<uint32_t>(n));
  // Null bitmap: bit set = non-null.
  std::string bitmap((n + 7) / 8, '\0');
  for (size_t i = 0; i < n; ++i) {
    if (!values[i].is_null()) bitmap[i / 8] |= static_cast<char>(1 << (i % 8));
  }
  out->append(bitmap);
  if (type == TypeId::kString) {
    for (const Value& v : values) {
      if (!v.is_null()) PutStr(out, v.str());
    }
  } else {
    for (const Value& v : values) {
      PutU64(out, v.is_null() ? 0 : FixedPayloadOf(v));
    }
  }
}

/// Decodes a column previously written by PutColumn. `expected_type` is the
/// live schema's type for the attribute; a mismatch fails the decode.
bool ReadColumn(Reader* r, TypeId expected_type, uint32_t max_rows,
                std::vector<Value>* out) {
  TypeId type = static_cast<TypeId>(r->U8());
  uint32_t n = r->U32();
  if (!r->ok() || type != expected_type || n > max_rows) return false;
  std::string_view bitmap = r->Bytes((n + 7) / 8);
  if (!r->ok()) return false;
  out->clear();
  out->reserve(n);
  if (type == TypeId::kString) {
    for (uint32_t i = 0; i < n; ++i) {
      if (bitmap[i / 8] & (1 << (i % 8))) {
        out->push_back(Value::String(r->Str()));
      } else {
        out->push_back(Value::Null(type));
      }
    }
    return r->ok();
  }
  std::string_view words = r->Bytes(static_cast<size_t>(n) * 8);
  if (!r->ok()) return false;
  const char* p = words.data();
  uint32_t set = 0;
  for (char b : bitmap) set += std::popcount(static_cast<uint8_t>(b));
  if (set >= n) {
    // Fully populated column (the overwhelmingly common snapshot chunk):
    // per-type loops with no per-value null test or type dispatch.
    switch (type) {
      case TypeId::kDouble:
        for (uint32_t i = 0; i < n; ++i) {
          double d;
          std::memcpy(&d, p + 8 * static_cast<size_t>(i), 8);
          out->push_back(Value::Double(d));
        }
        break;
      case TypeId::kDate:
        for (uint32_t i = 0; i < n; ++i) {
          uint64_t w;
          std::memcpy(&w, p + 8 * static_cast<size_t>(i), 8);
          out->push_back(Value::Date(static_cast<int32_t>(w)));
        }
        break;
      case TypeId::kBool:
        for (uint32_t i = 0; i < n; ++i) {
          out->push_back(Value::Bool(p[8 * static_cast<size_t>(i)] != 0));
        }
        break;
      default:
        for (uint32_t i = 0; i < n; ++i) {
          int64_t v;
          std::memcpy(&v, p + 8 * static_cast<size_t>(i), 8);
          out->push_back(Value::Int64(v));
        }
    }
    return r->ok();
  }
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t w;
    std::memcpy(&w, p + 8 * static_cast<size_t>(i), 8);
    out->push_back(bitmap[i / 8] & (1 << (i % 8)) ? FixedValueOf(type, w)
                                                  : Value::Null(type));
  }
  return r->ok();
}

/// Advances past one PutColumn-encoded column without materializing it —
/// O(1) for fixed-width types, a length-prefix walk for strings. Used to
/// slice the cache section so the expensive Value materialization can run
/// on all cores; the per-slice ReadColumn re-validates everything.
bool SkipColumn(Reader* r, uint32_t max_rows) {
  uint8_t type8 = r->U8();
  uint32_t n = r->U32();
  if (!r->ok() || type8 >= kNumTypeIds || n > max_rows) return false;
  const size_t bitmap_bytes = (n + 7) / 8;
  if (static_cast<TypeId>(type8) != TypeId::kString) {
    return r->Skip(bitmap_bytes + static_cast<size_t>(n) * 8);
  }
  std::string_view bitmap = r->Bytes(bitmap_bytes);
  for (uint32_t i = 0; i < n; ++i) {
    if (bitmap[i / 8] & (1 << (i % 8))) {
      uint32_t len = r->U32();
      if (!r->Skip(len)) return false;
    }
  }
  return r->ok();
}

void PutOptionalValue(std::string* out, TypeId type,
                      const std::optional<Value>& v) {
  if (!v.has_value() || v->is_null()) {
    PutU8(out, 0);
    return;
  }
  PutU8(out, 1);
  if (type == TypeId::kString) {
    PutStr(out, v->str());
  } else {
    PutU64(out, FixedPayloadOf(*v));
  }
}

bool ReadOptionalValue(Reader* r, TypeId type, std::optional<Value>* out) {
  uint8_t has = r->U8();
  if (!r->ok()) return false;
  if (has == 0) {
    out->reset();
    return true;
  }
  if (type == TypeId::kString) {
    *out = Value::String(r->Str());
  } else {
    *out = FixedValueOf(type, r->U64());
  }
  return r->ok();
}

void PutAttrStats(std::string* out, const AttrStats& s) {
  PutU8(out, static_cast<uint8_t>(s.type));
  PutU64(out, s.rows_seen);
  PutU64(out, s.nulls);
  double ndv = s.ndv;
  uint64_t ndv_bits;
  std::memcpy(&ndv_bits, &ndv, 8);
  PutU64(out, ndv_bits);
  PutOptionalValue(out, s.type, s.min);
  PutOptionalValue(out, s.type, s.max);
  PutU32(out, static_cast<uint32_t>(s.histogram.size()));
  for (uint32_t b : s.histogram) PutU32(out, b);
}

bool ReadAttrStats(Reader* r, TypeId expected_type, AttrStats* out) {
  out->type = static_cast<TypeId>(r->U8());
  if (!r->ok() || out->type != expected_type) return false;
  out->rows_seen = r->U64();
  out->nulls = r->U64();
  uint64_t ndv_bits = r->U64();
  std::memcpy(&out->ndv, &ndv_bits, 8);
  if (!ReadOptionalValue(r, out->type, &out->min)) return false;
  if (!ReadOptionalValue(r, out->type, &out->max)) return false;
  uint32_t hist_n = r->U32();
  if (!r->ok() || r->remaining() < hist_n * sizeof(uint32_t)) return false;
  out->histogram.resize(hist_n);
  for (uint32_t i = 0; i < hist_n; ++i) out->histogram[i] = r->U32();
  return r->ok();
}

// ------------------------------------------------------------------
// Decoded snapshot (validated in full before anything is installed)
// ------------------------------------------------------------------

struct DecodedCacheChunk {
  uint64_t stripe = 0;
  int attr = 0;
  std::vector<Value> values;
};

struct DecodedStats {
  int attr = 0;
  AttrStats stats;
};

struct DecodedSnapshot {
  SourceFingerprint fingerprint;
  std::string format;
  Schema schema;
  uint32_t tuples_per_chunk = 0;
  bool has_pmap = false;
  uint64_t pmap_rows = 0;  // the row count, 0 when unknown at save time
  std::vector<PositionalMap::ExportedStripe> pmap;
  bool has_cache = false;
  std::vector<DecodedCacheChunk> cache;
  bool has_stats = false;
  bool has_row_count = false;
  uint64_t row_count = 0;
  std::vector<DecodedStats> stats;
  bool has_access = false;
  std::vector<ColumnAccessCounters> access;  // [attr] when has_access
  std::string gz_index;  // serialized InflateFile checkpoint index, or empty
};

/// Decodes and structurally validates the whole payload against its *own*
/// recorded schema (so a snapshot taken under a different schema decodes
/// cleanly and classifies as stale, not corrupt — the schema comparison is
/// the caller's). Returns false on any inconsistency — the caller treats
/// the file as corrupt and falls back to the cold path.
bool DecodePayload(std::string_view payload, uint32_t version,
                   DecodedSnapshot* out) {
  Reader r(payload);
  out->fingerprint.path = r.Str();
  out->fingerprint.size = r.U64();
  out->fingerprint.mtime_ns = r.I64();
  out->fingerprint.head_hash = r.U64();
  out->fingerprint.tail_hash = r.U64();
  out->format = r.Str();

  uint32_t ncols = r.U32();
  if (!r.ok() || ncols > 65535) return false;
  std::vector<Column> cols;
  cols.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    Column c;
    c.name = r.Str();
    uint8_t type = r.U8();
    if (!r.ok() || type >= kNumTypeIds) return false;
    c.type = static_cast<TypeId>(type);
    cols.push_back(std::move(c));
  }
  out->schema = Schema(std::move(cols));
  out->tuples_per_chunk = r.U32();
  if (!r.ok() || out->tuples_per_chunk == 0) return false;
  const int snap_ncols = out->schema.num_columns();
  const uint64_t tpc = out->tuples_per_chunk;

  out->has_pmap = r.U8() != 0;
  if (out->has_pmap) {
    out->pmap_rows = r.U64();
    uint64_t n_stripes = r.U64();
    // Each stripe carries at least a full spine; bound the count by what
    // the payload could possibly hold before reserving.
    if (!r.ok() || n_stripes > r.remaining() / (tpc * sizeof(uint64_t)) + 1) {
      return false;
    }
    out->pmap.reserve(n_stripes);
    for (uint64_t s = 0; s < n_stripes; ++s) {
      PositionalMap::ExportedStripe stripe;
      stripe.stripe = r.U64();
      uint32_t n_rows = r.U32();
      if (!r.ok() || n_rows != tpc) return false;
      if (!r.ReadU64Vec(&stripe.row_starts, n_rows)) return false;
      uint32_t n_attrs = r.U32();
      if (!r.ok() || n_attrs > static_cast<uint32_t>(snap_ncols)) return false;
      stripe.attrs.reserve(n_attrs);
      for (uint32_t a = 0; a < n_attrs; ++a) {
        int attr = static_cast<int>(static_cast<int32_t>(r.U32()));
        if (!r.ok() || attr < 0 || attr >= snap_ncols) return false;
        stripe.attrs.push_back(attr);
      }
      if (n_attrs > 0 &&
          !r.ReadU32Vec(&stripe.positions,
                        static_cast<size_t>(n_rows) * n_attrs)) {
        return false;
      }
      out->pmap.push_back(std::move(stripe));
    }
  }

  out->has_cache = r.U8() != 0;
  if (out->has_cache) {
    uint64_t n_chunks = r.U64();
    // A chunk costs at least its stripe/attr header plus a column header.
    if (!r.ok() || n_chunks > r.remaining() / 16 + 1) return false;
    out->cache.resize(n_chunks);
    // Two phases: a sequential walk validates chunk headers and slices each
    // column's bytes (O(1) per fixed-width column), then the slices — the
    // dominant cost of a big load is exactly this Value materialization —
    // decode in parallel, each through its own fully-validating Reader.
    std::vector<std::string_view> slices(n_chunks);
    for (uint64_t i = 0; i < n_chunks; ++i) {
      DecodedCacheChunk& chunk = out->cache[i];
      chunk.stripe = r.U64();
      chunk.attr = static_cast<int>(r.U32());
      if (!r.ok() || chunk.attr < 0 || chunk.attr >= snap_ncols) return false;
      size_t begin = r.pos();
      if (!SkipColumn(&r, out->tuples_per_chunk)) return false;
      slices[i] = r.Slice(begin, r.pos());
    }
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    auto decode_worker = [&] {
      for (size_t i; (i = next.fetch_add(1)) < slices.size();) {
        if (failed.load(std::memory_order_relaxed)) return;
        DecodedCacheChunk& chunk = out->cache[i];
        Reader cr(slices[i]);
        if (!ReadColumn(&cr, out->schema.column(chunk.attr).type,
                        out->tuples_per_chunk, &chunk.values) ||
            cr.remaining() != 0) {
          failed.store(true, std::memory_order_relaxed);
          return;
        }
      }
    };
    size_t hw = std::thread::hardware_concurrency();
    size_t n_threads = std::min(hw == 0 ? 1 : hw, slices.size());
    std::vector<std::thread> workers;
    for (size_t t = 1; t < n_threads; ++t) workers.emplace_back(decode_worker);
    decode_worker();
    for (std::thread& w : workers) w.join();
    if (failed.load()) return false;
  }

  out->has_stats = r.U8() != 0;
  if (out->has_stats) {
    out->has_row_count = r.U8() != 0;
    out->row_count = r.U64();
    uint32_t n = r.U32();
    if (!r.ok() || n > static_cast<uint32_t>(snap_ncols)) return false;
    out->stats.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      DecodedStats ds;
      ds.attr = static_cast<int>(r.U32());
      if (!r.ok() || ds.attr < 0 || ds.attr >= snap_ncols) return false;
      if (!ReadAttrStats(&r, out->schema.column(ds.attr).type, &ds.stats)) {
        return false;
      }
      out->stats.push_back(std::move(ds));
    }
  }

  // v2: per-column access counters (workload accounting for the promotion
  // policy). The section covers every schema column or is absent entirely.
  if (version >= 2) {
    out->has_access = r.U8() != 0;
    if (out->has_access) {
      uint32_t n = r.U32();
      if (!r.ok() || n != static_cast<uint32_t>(snap_ncols) ||
          r.remaining() < static_cast<size_t>(n) * 5 * sizeof(uint64_t)) {
        return false;
      }
      out->access.resize(n);
      for (uint32_t i = 0; i < n; ++i) {
        ColumnAccessCounters& c = out->access[i];
        c.scans = r.U64();
        c.rows_parsed = r.U64();
        c.bytes_parsed = r.U64();
        c.rows_from_cache = r.U64();
        c.rows_from_promoted = r.U64();
      }
      if (!r.ok()) return false;
    }
  }

  // v3: gzip checkpoint index for compressed sources. An opaque blob —
  // InflateFile::InstallIndex validates it internally (own magic +
  // checksum), so decode only moves the bytes. Present only when the
  // writer's source was compressed and its index was complete.
  if (version >= 3) {
    if (r.U8() != 0) {
      out->gz_index = r.Str();
      if (!r.ok() || out->gz_index.empty()) return false;
    }
  }

  // Trailing garbage would mean the writer and reader disagree.
  return r.ok() && r.remaining() == 0;
}

SnapshotLoadInfo Reject(TableRuntime* rt, SnapshotLoadOutcome outcome,
                        uint64_t bytes, std::string detail) {
  SnapshotLoadInfo info;
  info.outcome = outcome;
  info.bytes = bytes;
  info.detail = std::move(detail);
  if (outcome == SnapshotLoadOutcome::kStale) {
    rt->snapshot_state.store(SnapshotState::kStale, std::memory_order_release);
  } else if (outcome == SnapshotLoadOutcome::kCorrupt) {
    rt->snapshot_state.store(SnapshotState::kCorrupt,
                             std::memory_order_release);
  }
  return info;
}

}  // namespace

uint64_t SnapshotChecksum(const char* data, size_t n) {
  // Four independent FNV-style lanes, folded at the end: one lane's
  // multiply chain is latency-bound (~5 cycles per word), four lanes keep
  // the multiplier pipeline full. Every input bit still perturbs the digest
  // through a bijective step, and the final length fold catches truncation
  // that happens to end on a run of zero words.
  constexpr uint64_t kPrime = 0x100000001B3ULL;
  uint64_t h0 = 0xCBF29CE484222325ULL;
  uint64_t h1 = 0x9E3779B97F4A7C15ULL;
  uint64_t h2 = 0xC2B2AE3D27D4EB4FULL;
  uint64_t h3 = 0x165667B19E3779F9ULL;
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    uint64_t w[4];
    std::memcpy(w, data + i, 32);
    h0 = (h0 ^ w[0]) * kPrime;
    h1 = (h1 ^ w[1]) * kPrime;
    h2 = (h2 ^ w[2]) * kPrime;
    h3 = (h3 ^ w[3]) * kPrime;
    h0 ^= h0 >> 29;
    h1 ^= h1 >> 29;
    h2 ^= h2 >> 29;
    h3 ^= h3 >> 29;
  }
  uint64_t h = h0;
  h = (h ^ h1) * kPrime;
  h ^= h >> 29;
  h = (h ^ h2) * kPrime;
  h ^= h >> 29;
  h = (h ^ h3) * kPrime;
  h ^= h >> 29;
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, data + i, 8);
    h = (h ^ w) * kPrime;
    h ^= h >> 29;
  }
  uint64_t tail = 0;
  if (i < n) std::memcpy(&tail, data + i, n - i);
  h = (h ^ tail ^ static_cast<uint64_t>(n)) * kPrime;
  h ^= h >> 32;
  return h;
}

std::string SnapshotPathFor(const std::string& dir, const std::string& name) {
  return dir + "/" + name + ".nodbsnap";
}

Result<SourceFingerprint> FingerprintSource(const std::string& path) {
  SourceFingerprint fp;
  fp.path = path;
  NODB_ASSIGN_OR_RETURN(fp.size, FileSizeOf(path));
  NODB_ASSIGN_OR_RETURN(fp.mtime_ns, FileMTimeNs(path));
  // A private handle: fingerprinting must not count against the table's
  // raw-scan I/O accounting (tests assert zero bytes_read on warm paths).
  NODB_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> file,
                        RandomAccessFile::Open(path));
  std::vector<char> buf(kSampleBytes);
  uint64_t head_len = std::min<uint64_t>(kSampleBytes, fp.size);
  NODB_ASSIGN_OR_RETURN(uint64_t n, file->Read(0, head_len, buf.data()));
  fp.head_hash = SnapshotChecksum(buf.data(), n);
  uint64_t tail_off = fp.size > kSampleBytes ? fp.size - kSampleBytes : 0;
  uint64_t tail_len = fp.size - tail_off;
  NODB_ASSIGN_OR_RETURN(n, file->Read(tail_off, tail_len, buf.data()));
  fp.tail_hash = SnapshotChecksum(buf.data(), n);
  return fp;
}

uint64_t WarmStateSignature(const TableRuntime& rt) {
  uint64_t sig = 0xA0C0FFEEULL;
  if (rt.pmap != nullptr) {
    PositionalMap::Counters c = rt.pmap->counters();
    sig = HashCombine(sig, rt.pmap->num_positions());
    sig = HashCombine(sig, rt.pmap->memory_bytes());
    sig = HashCombine(sig, c.fragments_installed);
    sig = HashCombine(sig, c.chunks_evicted);
  }
  if (rt.cache != nullptr) {
    ColumnCache::Counters c = rt.cache->counters();
    sig = HashCombine(sig, c.inserts);
    sig = HashCombine(sig, c.evictions);
    sig = HashCombine(sig, rt.cache->memory_bytes());
  }
  sig = HashCombine(sig, static_cast<uint64_t>(rt.row_count.load() + 1));
  if (rt.access != nullptr) {
    sig = HashCombine(sig, rt.access->Signature());
  }
  if (rt.adapter != nullptr) {
    // Compressed sources: a completed checkpoint index is warm state worth
    // re-saving even when nothing else moved (the next restart then seeks
    // instead of re-inflating from zero).
    if (const InflateFile* gz = rt.adapter->file()->AsInflateFile()) {
      sig = HashCombine(sig, gz->checkpoint_count());
      sig = HashCombine(sig, gz->index_complete() ? 1 : 0);
    }
  }
  return sig;
}

Result<SnapshotWriteInfo> WriteTableSnapshot(TableRuntime* rt) {
  if (rt->storage != TableStorage::kRaw || rt->adapter == nullptr) {
    return Status::InvalidArgument("snapshots apply to raw tables only");
  }
  if (rt->snapshot_dir.empty()) {
    return Status::InvalidArgument("table '" + rt->name +
                                   "' has no snapshot directory configured");
  }
  if (rt->pmap == nullptr && rt->cache == nullptr && rt->stats == nullptr) {
    return Status::InvalidArgument(
        "table '" + rt->name + "' has no adaptive structures to snapshot");
  }
  NODB_RETURN_IF_ERROR(CreateDir(rt->snapshot_dir));

  // The signature is taken *before* the export: state that mutates during
  // the export makes the saved signature conservative (the next background
  // pass sees a difference and re-saves), never the reverse.
  const uint64_t signature = WarmStateSignature(*rt);

  NODB_ASSIGN_OR_RETURN(SourceFingerprint fp,
                        FingerprintSource(rt->adapter->path()));

  std::string payload;
  payload.reserve(1 << 20);
  PutStr(&payload, fp.path);
  PutU64(&payload, fp.size);
  PutI64(&payload, fp.mtime_ns);
  PutU64(&payload, fp.head_hash);
  PutU64(&payload, fp.tail_hash);
  PutStr(&payload, rt->adapter->format_name());
  PutU32(&payload, static_cast<uint32_t>(rt->schema.num_columns()));
  for (const Column& c : rt->schema.columns()) {
    PutStr(&payload, c.name);
    PutU8(&payload, static_cast<uint8_t>(c.type));
  }
  PutU32(&payload, static_cast<uint32_t>(rt->tuples_per_chunk));
  // The pmap and stats sections both carry the table's one row count.
  const int64_t row_count = rt->row_count.load();
  const uint64_t known_rows = row_count >= 0 ? row_count : 0;

  if (rt->pmap != nullptr) {
    PutU8(&payload, 1);
    std::vector<PositionalMap::ExportedStripe> stripes =
        rt->pmap->ExportState();
    PutU64(&payload, known_rows);
    PutU64(&payload, stripes.size());
    for (const PositionalMap::ExportedStripe& s : stripes) {
      PutU64(&payload, s.stripe);
      PutU32(&payload, static_cast<uint32_t>(s.row_starts.size()));
      payload.append(reinterpret_cast<const char*>(s.row_starts.data()),
                     s.row_starts.size() * sizeof(uint64_t));
      PutU32(&payload, static_cast<uint32_t>(s.attrs.size()));
      for (int a : s.attrs) PutU32(&payload, static_cast<uint32_t>(a));
      if (!s.positions.empty()) {
        payload.append(reinterpret_cast<const char*>(s.positions.data()),
                       s.positions.size() * sizeof(uint32_t));
      }
    }
  } else {
    PutU8(&payload, 0);
  }

  if (rt->cache != nullptr) {
    PutU8(&payload, 1);
    std::vector<ColumnCache::ExportedChunk> chunks = rt->cache->ExportState();
    PutU64(&payload, chunks.size());
    for (const ColumnCache::ExportedChunk& chunk : chunks) {
      PutU64(&payload, chunk.stripe);
      PutU32(&payload, static_cast<uint32_t>(chunk.attr));
      PutColumn(&payload, rt->schema.column(chunk.attr).type, *chunk.values);
    }
  } else {
    PutU8(&payload, 0);
  }

  if (rt->stats != nullptr) {
    PutU8(&payload, 1);
    PutU8(&payload, row_count >= 0 ? 1 : 0);
    PutU64(&payload, known_rows);
    std::vector<std::pair<int, TableStats::AttrStatsPtr>> built =
        rt->stats->ExportBuilt();
    PutU32(&payload, static_cast<uint32_t>(built.size()));
    for (const auto& [attr, stats] : built) {
      PutU32(&payload, static_cast<uint32_t>(attr));
      PutAttrStats(&payload, *stats);
    }
  } else {
    PutU8(&payload, 0);
  }

  if (rt->access != nullptr) {
    PutU8(&payload, 1);
    const int ncols = rt->schema.num_columns();
    PutU32(&payload, static_cast<uint32_t>(ncols));
    for (int a = 0; a < ncols; ++a) {
      ColumnAccessCounters c = rt->access->Snapshot(a);
      PutU64(&payload, c.scans);
      PutU64(&payload, c.rows_parsed);
      PutU64(&payload, c.bytes_parsed);
      PutU64(&payload, c.rows_from_cache);
      PutU64(&payload, c.rows_from_promoted);
    }
  } else {
    PutU8(&payload, 0);
  }

  // v3: gzip checkpoint index. Only a *complete* index is worth persisting
  // (SerializeIndex returns empty otherwise); a partial one would be
  // rebuilt by the next cold scan anyway.
  {
    std::string gz_index;
    if (const InflateFile* gz = rt->adapter->file()->AsInflateFile()) {
      gz_index = gz->SerializeIndex();
    }
    if (!gz_index.empty()) {
      PutU8(&payload, 1);
      PutStr(&payload, gz_index);
    } else {
      PutU8(&payload, 0);
    }
  }

  std::string header;
  header.reserve(kHeaderBytes);
  header.append(kMagic, sizeof(kMagic));
  PutU32(&header, kVersion);
  PutU32(&header, 0);  // flags
  PutU64(&header, payload.size());
  PutU64(&header, SnapshotChecksum(payload.data(), payload.size()));
  PutU64(&header, 0);  // reserved

  // Write-temp + fsync + atomic rename: a crash at any point leaves either
  // the previous complete snapshot or the new one, never a torn file.
  SnapshotWriteInfo info;
  info.path = SnapshotPathFor(rt->snapshot_dir, rt->name);
  info.bytes = header.size() + payload.size();
  std::string tmp = info.path + ".tmp." + std::to_string(getpid());
  {
    NODB_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> f,
                          WritableFile::Create(tmp));
    Status write_status = f->Append(header);
    if (write_status.ok()) write_status = f->Append(payload);
    if (write_status.ok()) write_status = f->Sync();
    if (write_status.ok()) write_status = f->Close();
    if (write_status.ok()) write_status = RenameFile(tmp, info.path);
    if (!write_status.ok()) {
      RemoveFileIfExists(tmp);
      return write_status;
    }
  }

  rt->snapshot_bytes.store(info.bytes, std::memory_order_release);
  rt->snapshot_signature.store(signature, std::memory_order_release);
  return info;
}

SnapshotLoadInfo LoadTableSnapshot(TableRuntime* rt) {
  SnapshotLoadInfo info;
  if (rt->storage != TableStorage::kRaw || rt->adapter == nullptr ||
      rt->snapshot_dir.empty() ||
      (rt->pmap == nullptr && rt->cache == nullptr && rt->stats == nullptr)) {
    info.detail = "table not snapshot-capable";
    return info;
  }
  const std::string path = SnapshotPathFor(rt->snapshot_dir, rt->name);
  if (!FileExists(path)) {
    info.detail = "no snapshot file";
    return info;
  }
  Result<std::string> raw = ReadFileToString(path);
  if (!raw.ok()) {
    return Reject(rt, SnapshotLoadOutcome::kCorrupt, 0,
                  "unreadable: " + raw.status().message());
  }
  const std::string& bytes = *raw;
  info.bytes = bytes.size();

  // Header: magic, version, size, checksum — all verified before a single
  // payload field is interpreted.
  if (bytes.size() < kHeaderBytes ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Reject(rt, SnapshotLoadOutcome::kCorrupt, info.bytes, "bad magic");
  }
  Reader header(std::string_view(bytes).substr(sizeof(kMagic),
                                               kHeaderBytes - sizeof(kMagic)));
  uint32_t version = header.U32();
  header.U32();  // flags
  uint64_t payload_size = header.U64();
  uint64_t checksum = header.U64();
  if (version < kMinVersion || version > kVersion) {
    return Reject(rt, SnapshotLoadOutcome::kStale, info.bytes,
                  "snapshot version " + std::to_string(version));
  }
  if (bytes.size() != kHeaderBytes + payload_size) {
    return Reject(rt, SnapshotLoadOutcome::kCorrupt, info.bytes,
                  "truncated payload");
  }
  std::string_view payload =
      std::string_view(bytes).substr(kHeaderBytes, payload_size);
  if (SnapshotChecksum(payload.data(), payload.size()) != checksum) {
    return Reject(rt, SnapshotLoadOutcome::kCorrupt, info.bytes,
                  "checksum mismatch");
  }

  // Decode + validate everything before installing anything, so a rejected
  // snapshot leaves the table untouched (cold).
  DecodedSnapshot snap;
  if (!DecodePayload(payload, version, &snap)) {
    return Reject(rt, SnapshotLoadOutcome::kCorrupt, info.bytes,
                  "undecodable payload");
  }

  // Staleness: the raw source must still be byte-identical (as far as the
  // fingerprint can tell) to what the snapshot indexed, and the engine must
  // address stripes the same way.
  Result<SourceFingerprint> now = FingerprintSource(rt->adapter->path());
  if (!now.ok()) {
    return Reject(rt, SnapshotLoadOutcome::kStale, info.bytes,
                  "source unreadable: " + now.status().message());
  }
  if (!(*now == snap.fingerprint)) {
    return Reject(rt, SnapshotLoadOutcome::kStale, info.bytes,
                  "source fingerprint changed");
  }
  if (snap.format != rt->adapter->format_name()) {
    return Reject(rt, SnapshotLoadOutcome::kStale, info.bytes,
                  "format changed");
  }
  if (!(snap.schema == rt->schema)) {
    return Reject(rt, SnapshotLoadOutcome::kStale, info.bytes,
                  "schema changed");
  }
  if (snap.tuples_per_chunk != static_cast<uint32_t>(rt->tuples_per_chunk)) {
    return Reject(rt, SnapshotLoadOutcome::kStale, info.bytes,
                  "stripe size changed");
  }

  // ---- install ----

  if (snap.has_pmap && rt->pmap != nullptr) {
    // Through the scan install path, under a fresh epoch: budget admission
    // applies (an over-budget snapshot is partially declined — positions
    // only cost future re-tokenization) and the installed chunks are
    // protected from self-eviction while the install runs.
    const uint64_t tpc = snap.tuples_per_chunk;
    uint64_t epoch = rt->pmap->BeginEpoch();
    // Stripes install concurrently, exactly like parallel morsel workers
    // landing their fragments: InstallFragment is the concurrent-scan merge
    // path, and distinct stripes touch distinct chunks.
    std::atomic<size_t> next_stripe{0};
    auto install_worker = [&] {
      PmapFragment frag;
      for (size_t si; (si = next_stripe.fetch_add(1)) <
                      snap.pmap.size();) {
        const PositionalMap::ExportedStripe& s = snap.pmap[si];
        const size_t n_attrs = s.attrs.size();
        // One fragment per contiguous run of known row starts (a
        // fragment's records are consecutive tuples by contract).
        size_t r = 0;
        while (r < s.row_starts.size()) {
          if (s.row_starts[r] == PositionalMap::kNoRowStart) {
            ++r;
            continue;
          }
          size_t run_end = r;
          while (run_end < s.row_starts.size() &&
                 s.row_starts[run_end] != PositionalMap::kNoRowStart) {
            ++run_end;
          }
          frag.Reset(s.attrs);
          frag.Reserve(static_cast<int>(run_end - r));
          for (size_t i = r; i < run_end; ++i) {
            frag.AddRecord(s.row_starts[i],
                           n_attrs > 0 ? &s.positions[i * n_attrs] : nullptr);
          }
          rt->pmap->InstallFragment(frag, s.stripe * tpc + r, epoch);
          r = run_end;
        }
      }
    };
    size_t hw = std::thread::hardware_concurrency();
    size_t n_threads = std::min(hw == 0 ? 1 : hw, snap.pmap.size());
    std::vector<std::thread> workers;
    for (size_t t = 1; t < n_threads; ++t) workers.emplace_back(install_worker);
    install_worker();
    for (std::thread& w : workers) w.join();
    rt->pmap->EndEpoch(epoch);
  }

  if (snap.has_cache && rt->cache != nullptr) {
    for (DecodedCacheChunk& chunk : snap.cache) {
      rt->cache->Put(chunk.stripe, chunk.attr, std::move(chunk.values));
    }
  }

  if (snap.has_access && rt->access != nullptr) {
    for (int a = 0; a < rt->schema.num_columns(); ++a) {
      rt->access->InstallSnapshot(a, snap.access[a]);
    }
  }

  if (!snap.gz_index.empty()) {
    // Best-effort: a rejected index (corrupt blob, or the source is no
    // longer served compressed) only costs re-inflation from zero — the
    // rest of the warm state above stays installed either way.
    if (const InflateFile* gz = rt->adapter->file()->AsInflateFile()) {
      (void)gz->InstallIndex(snap.gz_index);
    }
  }

  if (snap.has_stats && rt->stats != nullptr) {
    for (DecodedStats& ds : snap.stats) {
      rt->stats->InstallSnapshot(ds.attr, std::move(ds.stats));
    }
    if (snap.has_row_count || !snap.stats.empty()) {
      rt->stats_populated.store(true, std::memory_order_release);
    }
  }

  // Both sections record the table's row count; it belongs to the table,
  // not to either structure, so it is restored whichever is installed.
  if (snap.has_row_count) {
    rt->row_count = static_cast<int64_t>(snap.row_count);
  } else if (snap.pmap_rows > 0) {
    rt->row_count = static_cast<int64_t>(snap.pmap_rows);
  }

  rt->snapshot_state.store(SnapshotState::kLoaded, std::memory_order_release);
  rt->snapshot_bytes.store(info.bytes, std::memory_order_release);
  // The freshly restored state is what's on disk; don't re-save it until
  // the live workload moves it.
  rt->snapshot_signature.store(WarmStateSignature(*rt),
                               std::memory_order_release);
  info.outcome = SnapshotLoadOutcome::kLoaded;
  return info;
}

}  // namespace nodb
