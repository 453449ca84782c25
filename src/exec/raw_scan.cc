#include "exec/raw_scan.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <string>
#include <utility>

#include "expr/evaluator.h"
#include "pmap/temp_map.h"
#include "util/thread_pool.h"

namespace nodb {

namespace {
constexpr uint32_t kUnknown = PositionalMap::kUnknown;
static_assert(kUnknown == kNoFieldPos,
              "positional map and adapter sentinels must agree");

/// Morsel auto-sizing bounds: small enough that a scan splits into several
/// units per worker (load balance, bounded early-Close overshoot), large
/// enough that per-morsel overhead (seek, boundary probe, merge) stays
/// negligible.
constexpr uint64_t kMinMorselBytes = 256 * 1024;
constexpr uint64_t kMaxMorselBytes = 16 * 1024 * 1024;
/// Target morsels per worker thread.
constexpr int kMorselsPerThread = 8;

/// Evaluates the pushed-down conjuncts over `row`.
Result<bool> Qualifies(const PlannedScan& scan, const Row& row) {
  for (const ExprPtr& conj : scan.conjuncts) {
    NODB_ASSIGN_OR_RETURN(Value v, Evaluator::Eval(*conj, row));
    if (!Evaluator::IsTruthy(v)) return false;
  }
  return true;
}
}  // namespace

ScanAttrPlan ComputeScanAttrPlan(const PlannedScan& scan, int ncols,
                                 const InSituOptions& opts) {
  ScanAttrPlan plan;
  // Without selective tuple formation every column is an output column;
  // without selective parsing phase 1 covers all output columns (parse
  // first, filter later — the straw-man).
  std::vector<int>& needed = plan.output_attrs;
  if (opts.selective_tuple_formation) {
    needed.insert(needed.end(), scan.where_attrs.begin(),
                  scan.where_attrs.end());
    needed.insert(needed.end(), scan.payload_attrs.begin(),
                  scan.payload_attrs.end());
  } else {
    for (int c = 0; c < ncols; ++c) needed.push_back(c);
  }
  std::sort(needed.begin(), needed.end());
  needed.erase(std::unique(needed.begin(), needed.end()), needed.end());

  if (opts.selective_parsing) {
    plan.phase1_attrs = scan.where_attrs;
    std::sort(plan.phase1_attrs.begin(), plan.phase1_attrs.end());
    for (int a : plan.output_attrs) {
      if (!std::binary_search(plan.phase1_attrs.begin(),
                              plan.phase1_attrs.end(), a)) {
        plan.phase2_attrs.push_back(a);
      }
    }
  } else {
    plan.phase1_attrs = plan.output_attrs;
  }

  plan.max_token_attr =
      opts.selective_tokenizing
          ? (plan.output_attrs.empty() ? 0 : plan.output_attrs.back())
          : ncols - 1;
  return plan;
}

// ---------------------------------------------------------------------
// The decode kernel
// ---------------------------------------------------------------------

Status DecodeMorsel(const DecodeContext& ctx, const Morsel& morsel,
                    MorselDecoder* dec, MorselResult* out) {
  const RawSourceAdapter& adapter = *ctx.adapter;
  const RawTraits& traits = adapter.traits();
  const Schema& schema = adapter.schema();
  const int ncols = schema.num_columns();
  const ScanAttrPlan& plan = ctx.attrs;
  const PlannedScan& scan = *ctx.scan;
  const int offset = scan.table.offset;
  const int tps = ctx.tuples_per_stripe;
  PositionalMap* pm = ctx.pm;
  ColumnCache* cache = ctx.cache;
  const bool use_pm_positions = ctx.opts.use_positional_map && pm != nullptr;

  // A by-index morsel knows its stripe and where inside it it starts, so
  // it may consult what earlier queries left for that stripe; a byte-range
  // morsel decodes cold.
  const bool known = morsel.by_index;
  const uint64_t stripe = known ? morsel.begin / tps : 0;
  const int in0 = known ? static_cast<int>(morsel.begin - stripe * tps) : 0;
  const uint64_t limit = known ? morsel.end - morsel.begin : UINT64_MAX;

  out->status = Status::OK();
  out->eof = false;
  out->from_file = false;
  out->records = 0;
  out->num_rows = 0;
  out->frag.Reset({});
  out->filter_indexed = true;
  out->cache_attr.assign(ncols, 0);
  out->stats_attr.assign(ncols, 0);
  out->cache_vals.resize(ncols);
  out->stats_vals.resize(ncols);
  for (int a = 0; a < ncols; ++a) {
    out->cache_vals[a].clear();
    out->stats_vals[a].clear();
  }
  out->access.assign(ncols, ColumnAccessCounters{});
  auto fail = [out](Status s) {
    out->status = s;
    return s;
  };

  // Promoted-column and cache snapshots for this stripe, fetched once up
  // front — the promoted store first (it covers whole columns and costs no
  // budget churn), the cache as fallback. They are usable only when the
  // stripe's population is pinned (a completed scan, a fixed-stride
  // header). The shared_ptr columns stay valid whatever concurrent
  // promotion/demotion or cache eviction does, and "all warm" is decided
  // on the snapshots themselves — a race between a membership check and
  // the reads degrades to the file path instead of failing the query.
  int n_expected = -1;
  if (known && morsel.table_rows > stripe * tps) {
    n_expected = static_cast<int>(
        std::min<uint64_t>(tps, morsel.table_rows - stripe * tps));
  }
  std::vector<ColumnCache::Column> warm(ncols);
  std::vector<uint8_t> from_promoted(ncols, 0);
  bool all_warm = (cache != nullptr || ctx.promo != nullptr) && n_expected > 0;
  if (n_expected > 0) {
    for (int a : plan.output_attrs) {
      if (ctx.promo != nullptr) {
        PromotedColumns::Chunk col = ctx.promo->ChunkFor(stripe, a);
        if (col != nullptr && static_cast<int>(col->size()) == n_expected) {
          warm[a] = std::move(col);
          from_promoted[a] = 1;
          continue;
        }
      }
      if (cache != nullptr) {
        ColumnCache::Column col = cache->Get(stripe, a);
        if (col != nullptr && static_cast<int>(col->size()) == n_expected) {
          warm[a] = std::move(col);
          continue;
        }
      }
      all_warm = false;
    }
  }
  auto count_warm = [&](uint64_t n) {
    for (int a : plan.output_attrs) {
      if (warm[a] == nullptr) continue;
      if (from_promoted[a]) {
        out->access[a].rows_from_promoted += n;
      } else {
        out->access[a].rows_from_cache += n;
      }
    }
  };

  // Fast path: the whole range is served from warm columns — no file
  // access at all (§4.3: "if the attribute is requested by future queries,
  // PostgresRaw will read it directly from the cache").
  if (all_warm) {
    for (uint64_t t = 0; t < limit; ++t) {
      const size_t i = in0 + t;
      Row& row = out->NextRow(ctx.width);
      for (int a : plan.phase1_attrs) row[offset + a] = (*warm[a])[i];
      Result<bool> pass = Qualifies(scan, row);
      if (!pass.ok()) return fail(pass.status());
      if (!*pass) continue;
      for (int a : plan.phase2_attrs) row[offset + a] = (*warm[a])[i];
      ++out->num_rows;
    }
    out->records = limit;
    count_warm(limit);
    return Status::OK();
  }

  // File path. Position the cursor at the morsel's first record (seek
  // targets are always data-record starts, so any header is behind us);
  // a by-index cursor already standing there is not moved. `warm` still
  // serves the mixed mode (some attrs warm, some not).
  out->from_file = true;
  if (dec->cursor == nullptr) {
    Result<std::unique_ptr<RecordCursor>> c = adapter.OpenCursor();
    if (!c.ok()) return fail(c.status());
    dec->cursor = std::move(*c);
    dec->next_tuple = 0;
  }
  if (!known) {
    dec->next_tuple = MorselDecoder::kUnknownTuple;
    Status s = dec->cursor->SeekToRecord(0, morsel.begin);
    if (!s.ok()) return fail(s);
  } else if (dec->next_tuple != morsel.begin) {
    uint64_t seek_offset = 0;
    if (!traits.fixed_stride) {
      std::optional<uint64_t> start =
          pm != nullptr ? pm->RowStart(morsel.begin) : std::nullopt;
      if (!start.has_value()) {
        return fail(Status::Internal("no spine entry to seek to tuple " +
                                     std::to_string(morsel.begin)));
      }
      seek_offset = *start;
    }
    dec->next_tuple = MorselDecoder::kUnknownTuple;
    Status s = dec->cursor->SeekToRecord(morsel.begin, seek_offset);
    if (!s.ok()) return fail(s);
  }

  // Snapshot of attributes already indexed for this stripe, taken before
  // anything of this morsel is installed (a fresh, still-hole-filled chunk
  // must not be treated as an anchor source).
  std::vector<int> indexed_before;
  if (use_pm_positions && known) {
    indexed_before = pm->IndexedAttrsForStripe(stripe);
  }

  // Decide which attribute positions this morsel contributes to the map
  // (§4.2 Map Population + the combination policy). With
  // index_intermediates every attribute the tokenizer may cross is
  // recorded, not just the requested ones. A byte-range morsel does not
  // know its stripe: it stages them all and InstallFragment drops what the
  // stripe already indexes.
  std::vector<int> attrs_to_insert;
  if (use_pm_positions) {
    auto missing = [&](int a) {
      return !known || !pm->StripeHasAttr(stripe, a);
    };
    if (ctx.opts.index_intermediates) {
      for (int a = 0; a <= plan.max_token_attr; ++a) {
        if (missing(a)) attrs_to_insert.push_back(a);
      }
    } else {
      for (int a : plan.output_attrs) {
        if (missing(a)) attrs_to_insert.push_back(a);
      }
    }
    if (known && attrs_to_insert.empty() && ctx.opts.index_combinations &&
        plan.output_attrs.size() > 1 &&
        !pm->StripeAttrsShareChunk(stripe, plan.output_attrs)) {
      attrs_to_insert = plan.output_attrs;
      out->filter_indexed = false;  // re-index attrs the stripe already has
    }
  }

  // Temporary map (§4.2 Pre-fetching): prefetch known positions for the
  // query's attributes plus, per requested attribute, its nearest indexed
  // neighbours (the anchors incremental tokenizing starts from). Attributes
  // being inserted also need slots so crossed positions can be recorded.
  // Bounding the anchor set keeps the temporary map small no matter how
  // many combinations history has indexed.
  std::vector<int>& temp_attrs = dec->temp_attrs;
  temp_attrs = plan.output_attrs;
  temp_attrs.insert(temp_attrs.end(), attrs_to_insert.begin(),
                    attrs_to_insert.end());
  for (int a : plan.output_attrs) {
    auto lo = std::lower_bound(indexed_before.begin(), indexed_before.end(),
                               a);
    if (lo != indexed_before.begin()) {
      temp_attrs.push_back(*(lo - 1));  // floor anchor, strictly below
    }
    auto hi = std::upper_bound(indexed_before.begin(), indexed_before.end(),
                               a);
    if (hi != indexed_before.end()) {
      temp_attrs.push_back(*hi);  // ceiling anchor, strictly above
    }
  }
  std::sort(temp_attrs.begin(), temp_attrs.end());
  temp_attrs.erase(std::unique(temp_attrs.begin(), temp_attrs.end()),
                   temp_attrs.end());
  const int nslots = static_cast<int>(temp_attrs.size());
  std::vector<int>& slot_of = dec->slot_of;
  slot_of.assign(ncols, -1);
  for (int s = 0; s < nslots; ++s) slot_of[temp_attrs[s]] = s;
  const bool anchored = use_pm_positions && known;
  TempMap temp(anchored ? pm : nullptr, stripe, anchored ? tps : 0,
               temp_attrs);

  // The sink every adapter hook reports through: discovered field starts
  // land directly in the tracked per-tuple slots, and container corruption
  // noticed mid-walk lands in record_corrupt.
  std::vector<uint32_t>& tuple_pos = dec->tuple_pos;
  tuple_pos.assign(nslots, kUnknown);
  bool record_corrupt = false;
  const PositionSink sink{slot_of.data(), tuple_pos.data(), &record_corrupt};

  // Cache population (§4.3: only attributes parsed for this query) and
  // statistics, collected once per attribute (§4.4/Fig. 12): attributes
  // with a finalized snapshot are skipped on later queries. Values are
  // staged per morsel and handed over at merge, so the stats and cache
  // locks are paid per morsel, not per value; a morsel that fails
  // mid-parse drops its staged values.
  for (int a : plan.output_attrs) {
    if (cache != nullptr && warm[a] == nullptr &&
        (!known || !cache->Contains(stripe, a))) {
      out->cache_attr[a] = 1;
      out->cache_vals[a].reserve(std::min<uint64_t>(limit, tps));
    }
    if (ctx.stats != nullptr && !ctx.stats->HasAttr(a)) {
      out->stats_attr[a] = 1;
    }
  }

  // Slot of each to-be-inserted attribute, for the per-tuple staging loop.
  std::vector<int> insert_slots(attrs_to_insert.size());
  for (size_t i = 0; i < attrs_to_insert.size(); ++i) {
    insert_slots[i] = slot_of[attrs_to_insert[i]];
  }
  dec->frag_pos.assign(attrs_to_insert.size(), kUnknown);
  out->frag.Reset(std::move(attrs_to_insert));

  bool all_qualified = true;
  uint64_t n = 0;

  // Dense path: when the positional map holds nothing for this stripe (the
  // cold scan), per-field anchor walks have no anchors to exploit — one
  // batch-tokenizer pass per record resolves every start up front instead,
  // feeding the same tuple_pos slots the incremental walk would fill.
  // Formats without a batch tokenizer (and the forced-scalar reference
  // path) report -1 on the first record and fall back for the morsel.
  bool use_dense = !use_pm_positions || indexed_before.empty();
  std::vector<uint32_t> dense_starts;
  if (use_dense) dense_starts.resize(plan.max_token_attr + 1);

  RecordRef rec;
  for (; n < limit; ++n) {
    if ((n & 127) == 0 && ctx.cancel != nullptr &&
        ctx.cancel->load(std::memory_order_relaxed)) {
      return fail(Status::Cancelled("raw scan stopped"));
    }
    Result<bool> has = dec->cursor->Next(&rec);
    if (!has.ok()) return fail(has.status());
    if (!*has) {
      out->eof = true;
      break;
    }
    // A record starting at or past a byte morsel's end belongs to the next
    // morsel (its worker snapped to the same boundary).
    if (!known && rec.offset >= morsel.end) break;

    int dense_nf = -1;
    if (use_dense) {
      dense_nf = adapter.TokenizeRecord(rec, plan.max_token_attr,
                                        dense_starts.data());
      if (dense_nf < 0) use_dense = false;
    }
    if (dense_nf >= 0) {
      for (int s = 0; s < nslots; ++s) {
        int a = temp_attrs[s];
        tuple_pos[s] = a < dense_nf ? dense_starts[a] : kAbsentFieldPos;
      }
    } else {
      // Seed per-tuple positions from the temporary map.
      for (int s = 0; s < nslots; ++s) {
        tuple_pos[s] = anchored ? temp.Position(in0 + n, s) : kUnknown;
      }
      if (traits.attr0_at_start && nslots > 0 && temp_attrs[0] == 0) {
        tuple_pos[0] = 0;
      }
    }

    // For full-record tokenizers one FindForward call resolves every
    // present tracked attribute; afterwards a still-unknown slot means the
    // field is absent from this record — don't walk it again.
    bool record_walked = false;
    record_corrupt = false;

    // After a full-record walk, tracked slots still unresolved hold fields
    // the record does not contain: mark them absent so the positional map
    // remembers that and warm queries over sparse data never re-walk.
    auto mark_absent_slots = [&] {
      record_walked = true;
      for (int s = 0; s < nslots; ++s) {
        if (tuple_pos[s] == kUnknown) tuple_pos[s] = kAbsentFieldPos;
      }
    };

    // Resolves the start offset of `a`, incrementally tokenizing from the
    // nearest anchor (forward, or backward when closer and the format
    // permits; §4.2 "Exploiting the Positional Map"). The adapter reports
    // every crossed tracked attribute through the sink.
    auto resolve = [&](int a) -> uint32_t {
      int slot = slot_of[a];
      if (slot >= 0 && tuple_pos[slot] != kUnknown) return tuple_pos[slot];
      if (a == 0 && traits.attr0_at_start) {
        if (slot >= 0) tuple_pos[slot] = 0;
        return 0;
      }
      // Nearest known anchors among tracked attributes. Slots are sorted by
      // attribute, so walk outward from this attribute's own slot (resolved
      // attributes of this tuple usually sit immediately below).
      int below = -1, above = -1;
      int self = slot >= 0
                     ? slot
                     : static_cast<int>(std::lower_bound(temp_attrs.begin(),
                                                         temp_attrs.end(),
                                                         a) -
                                        temp_attrs.begin());
      for (int s = self - 1; s >= 0; --s) {
        if (tuple_pos[s] != kUnknown && tuple_pos[s] != kAbsentFieldPos) {
          below = s;
          break;
        }
      }
      for (int s = self + (slot >= 0 ? 1 : 0); s < nslots; ++s) {
        if (temp_attrs[s] <= a) continue;
        if (tuple_pos[s] != kUnknown && tuple_pos[s] != kAbsentFieldPos) {
          above = s;
          break;
        }
      }
      uint32_t pos = kUnknown;
      bool try_backward = above >= 0 && traits.backward_tokenize &&
                          (below < 0 || (temp_attrs[above] - a) <
                                            (a - temp_attrs[below]));
      if (try_backward) {
        pos = adapter.FindBackward(rec, temp_attrs[above], tuple_pos[above], a,
                                   sink);
      }
      if (pos == kUnknown) {
        if (traits.full_record_tokenize && record_walked) return kUnknown;
        int from_attr = below >= 0 ? temp_attrs[below] : -1;
        uint32_t from_pos = below >= 0 ? tuple_pos[below] : 0;
        pos = adapter.FindForward(rec, from_attr, from_pos, a, sink);
        if (traits.full_record_tokenize) {
          mark_absent_slots();
        } else {
          record_walked = true;
        }
      }
      if (slot >= 0 && pos != kUnknown) tuple_pos[slot] = pos;
      return pos;
    };

    auto parse_attr = [&](int a) -> Result<Value> {
      if (warm[a] != nullptr) return (*warm[a])[in0 + n];
      uint32_t pos = resolve(a);
      if (pos == kUnknown || pos == kAbsentFieldPos ||
          pos > rec.data.size()) {
        return Value::Null(schema.column(a).type);
      }
      uint32_t next_pos = kUnknown;
      if (dense_nf >= 0) {
        if (a + 1 < dense_nf) next_pos = dense_starts[a + 1];
      } else {
        int next_slot = a + 1 < ncols ? slot_of[a + 1] : -1;
        if (next_slot >= 0 && tuple_pos[next_slot] != kAbsentFieldPos) {
          next_pos = tuple_pos[next_slot];
        }
      }
      uint32_t end = adapter.FieldEnd(rec, a, pos, next_pos);
      ++out->access[a].rows_parsed;
      out->access[a].bytes_parsed += end > pos ? end - pos : 0;
      return adapter.ParseField(rec, a, pos, end);
    };

    // Parses one phase's attributes into the row, staging cache values
    // (phase-2 columns only while every record so far qualified) and the
    // statistics values the cache buffer does not carry.
    Row& row = out->NextRow(ctx.width);
    auto parse_phase = [&](const std::vector<int>& attrs,
                           bool cache_ok) -> Status {
      for (int a : attrs) {
        Result<Value> v = parse_attr(a);
        if (!v.ok()) return v.status();
        if (out->cache_attr[a] && cache_ok) {
          out->cache_vals[a].push_back(v.value());
        } else if (out->stats_attr[a]) {
          out->stats_vals[a].push_back(v.value());
        }
        row[offset + a] = std::move(v).value();
      }
      return Status::OK();
    };

    // Without selective tokenizing (external-files mode), walk the whole
    // record up front, charging the full tokenization cost.
    if (!ctx.opts.selective_tokenizing && ncols > 0) {
      adapter.FindForward(rec, -1, 0, ncols - 1, sink);
      if (traits.full_record_tokenize) mark_absent_slots();
    }

    // Phase 1: attributes the WHERE clause needs, for every tuple; phase 2:
    // the rest, only once the tuple qualifies (§4.1).
    Status s = parse_phase(plan.phase1_attrs, true);
    if (!s.ok()) return fail(s);
    Result<bool> pass = Qualifies(scan, row);
    if (!pass.ok()) return fail(pass.status());
    if (*pass) {
      s = parse_phase(plan.phase2_attrs, all_qualified);
      if (!s.ok()) return fail(s);
      ++out->num_rows;
    } else {
      all_qualified = false;
    }

    // An adapter flagged this record as container corruption (not one
    // well-formed unit): fail the query rather than ship whatever fields
    // the walk salvaged.
    if (record_corrupt) {
      return fail(Status::Corruption("corrupt raw record at offset " +
                                     std::to_string(rec.offset) + " of '" +
                                     std::string(adapter.path()) + "'"));
    }

    // Stage every position this tuple's tokenization discovered —
    // requested attributes and intermediates alike (§4.2 Map Population) —
    // plus the tuple's row start for the spine.
    if (pm != nullptr) {
      for (size_t i = 0; i < insert_slots.size(); ++i) {
        dec->frag_pos[i] = tuple_pos[insert_slots[i]];
      }
      out->frag.AddRecord(rec.offset, dec->frag_pos.data());
    }
  }

  out->records = n;
  if (known && !out->eof) dec->next_tuple = morsel.begin + n;
  count_warm(n);
  return Status::OK();
}

Result<uint64_t> ForEachRawStripe(
    const RawSourceAdapter& adapter, const std::vector<int>& attrs,
    int tuples_per_stripe, PositionalMap* spine,
    const std::function<Status(uint64_t first_tuple, MorselResult&)>& fn,
    const std::atomic<bool>* stop) {
  PlannedScan scan;
  scan.payload_attrs = attrs;
  DecodeContext ctx;
  ctx.adapter = &adapter;
  ctx.scan = &scan;
  ctx.opts.use_positional_map = false;  // the spine only
  ctx.attrs = ComputeScanAttrPlan(scan, adapter.schema().num_columns(),
                                  ctx.opts);
  ctx.width = adapter.schema().num_columns();
  ctx.tuples_per_stripe = tuples_per_stripe;
  ctx.pm = spine;
  ctx.cancel = stop;
  MorselDecoder dec;
  MorselResult stripe;
  uint64_t first = 0;
  do {
    NODB_RETURN_IF_ERROR(DecodeMorsel(
        ctx, Morsel{first, first + tuples_per_stripe, true}, &dec, &stripe));
    if (stripe.records > 0) NODB_RETURN_IF_ERROR(fn(first, stripe));
    first += stripe.records;
  } while (!stripe.eof);
  return first;
}

// ---------------------------------------------------------------------
// The scan operator
// ---------------------------------------------------------------------

RawScanOp::RawScanOp(TableRuntime* runtime, const PlannedScan* scan,
                     int working_width, InSituOptions options,
                     ExecControlPtr control, int num_threads,
                     uint64_t morsel_bytes, ThreadPool* pool)
    : runtime_(runtime), scan_(scan), working_width_(working_width),
      opts_(options), control_(std::move(control)),
      num_threads_(pool != nullptr ? std::max(1, num_threads) : 1),
      morsel_bytes_option_(morsel_bytes), pool_(pool) {}

RawScanOp::~RawScanOp() {
  CancelAndJoin();
  if (epoch_token_ != 0 && runtime_->pmap != nullptr) {
    runtime_->pmap->EndEpoch(epoch_token_);
  }
}

uint64_t RawScanOp::KnownTotalTuples() const {
  // Only a table whose structures describe the file as it was counted — a
  // positional map, resident promoted columns, or a header-stated count —
  // pins its scans; the structure-free baseline re-reads to EOF.
  const bool pinned =
      runtime_->pmap != nullptr ||
      (runtime_->promoted != nullptr &&
       runtime_->promoted->memory_bytes() > 0) ||
      runtime_->adapter->row_count_hint() >= 0;
  const int64_t rows = runtime_->row_count.load();
  return pinned && rows > 0 ? static_cast<uint64_t>(rows) : 0;
}

Status RawScanOp::PlanMorsels(uint64_t total) {
  morsels_.clear();
  const RawSourceAdapter* adapter = runtime_->adapter.get();
  // A source that cannot serve concurrent random reads cheaply — a
  // compressed stream whose checkpoint index is not built yet, where every
  // worker's first read would re-inflate from byte 0 — decodes inline: the
  // serial pass streams once and *builds* the index, and the next scan
  // splits at its checkpoints.
  if (num_threads_ < 2 || !adapter->file()->SupportsConcurrentReads()) {
    return Status::OK();
  }
  const int tps = ctx_.tuples_per_stripe;
  const uint64_t target_count =
      static_cast<uint64_t>(num_threads_) * kMorselsPerThread;

  // Tuple-range morsels once every record is addressable: a fixed stride
  // (seeks are arithmetic), a spine covering the table, or output columns
  // that are all promoted (no morsel reads the file). Ranges never cross a
  // stripe, so each morsel sees its stripe's anchors and warm columns.
  const PositionalMap* pm = runtime_->pmap.get();
  const PromotedColumns* promo = runtime_->promoted.get();
  const bool all_promoted =
      promo != nullptr && !ctx_.attrs.output_attrs.empty() &&
      std::all_of(ctx_.attrs.output_attrs.begin(),
                  ctx_.attrs.output_attrs.end(),
                  [promo](int a) { return promo->IsPromoted(a); });
  if (total > 0 &&
      (adapter->traits().fixed_stride || all_promoted ||
       (pm != nullptr && pm->contiguous_rows_known() >= total))) {
    uint64_t per = tps;
    if (adapter->traits().fixed_stride) {
      per = (total + target_count - 1) / target_count;
      if (morsel_bytes_option_ > 0) {
        const uint64_t est_row_bytes =
            std::max<uint64_t>(1, adapter->file()->size() / total);
        per = morsel_bytes_option_ / est_row_bytes;
      }
      per = std::clamp<uint64_t>(per, 1, tps);
    }
    for (uint64_t b = 0; b < total;) {
      const uint64_t e = std::min({b + per, (b / tps + 1) * tps, total});
      morsels_.push_back(Morsel{b, e, true, total});
      b = e;
    }
    return Status::OK();
  }

  // Byte-range morsels: nominal split points snapped to record starts by
  // the adapter. Snapping is a pure function of the offset, so consecutive
  // morsels agree on their shared boundary — no record is lost or scanned
  // twice no matter which worker gets which morsel.
  const uint64_t size = adapter->file()->size();
  if (size == 0) return Status::OK();
  uint64_t nominal = morsel_bytes_option_;
  if (nominal == 0) {
    nominal = std::clamp(size / target_count, kMinMorselBytes,
                         kMaxMorselBytes);
  }
  nominal = std::max<uint64_t>(1, nominal);

  // Where the source prefers certain split points — a compressed stream's
  // checkpoint offsets — use those (coalesced up to the nominal size): a
  // worker's morsel then begins exactly at a checkpoint, so its first read
  // restarts there instead of re-inflating up to an interval of overlap.
  // Arithmetic offsets cost nothing extra on a plain file.
  std::vector<uint64_t> splits;
  const std::vector<uint64_t> preferred =
      adapter->file()->RecommendedSplitOffsets();
  if (!preferred.empty()) {
    uint64_t last = 0;
    for (uint64_t p : preferred) {
      if (p <= last || p >= size || p - last < nominal) continue;
      splits.push_back(p);
      last = p;
    }
  } else {
    for (uint64_t split = nominal; split < size; split += nominal) {
      splits.push_back(split);
    }
  }
  splits.push_back(size);

  NODB_ASSIGN_OR_RETURN(uint64_t prev, adapter->FindRecordBoundary(0));
  for (uint64_t split : splits) {
    NODB_ASSIGN_OR_RETURN(uint64_t boundary,
                          adapter->FindRecordBoundary(split));
    if (boundary > prev) morsels_.push_back(Morsel{prev, boundary, false});
    prev = boundary;
  }
  return Status::OK();
}

Status RawScanOp::Open() {
  if (runtime_->adapter == nullptr) {
    return Status::Internal("raw scan over a table without a source adapter");
  }
  const int ncols = runtime_->schema.num_columns();
  ctx_ = DecodeContext{};
  ctx_.adapter = runtime_->adapter.get();
  ctx_.scan = scan_;
  ctx_.attrs = ComputeScanAttrPlan(*scan_, ncols, opts_);
  ctx_.opts = opts_;
  ctx_.width = working_width_;
  ctx_.tuples_per_stripe = runtime_->tuples_per_chunk;
  ctx_.pm = runtime_->pmap.get();
  ctx_.cache = opts_.use_cache ? runtime_->cache.get() : nullptr;
  ctx_.promo = runtime_->promoted.get();
  ctx_.stats = opts_.collect_stats ? runtime_->stats.get() : nullptr;
  ctx_.cancel = &cancel_;

  if (runtime_->pmap != nullptr && opts_.use_positional_map) {
    epoch_token_ = runtime_->pmap->BeginEpoch();
  }
  if (runtime_->access != nullptr) {
    runtime_->access->RecordScan(ctx_.attrs.output_attrs);
  }
  eof_ = false;
  emitted_ = 0;
  out_size_ = 0;
  out_idx_ = 0;
  pending_ = PendingStripe{};
  pending_.vals.resize(ncols);
  cancel_ = false;
  next_claim_ = 0;
  merge_idx_ = 0;

  NODB_RETURN_IF_ERROR(PlanMorsels(KnownTotalTuples()));
  if (morsels_.size() < 2) {
    // The one-thread case: the consumer decodes stripe-sized morsels
    // inline, streaming its own cursor from the first record.
    morsels_.clear();
    slots_.resize(1);
    NODB_ASSIGN_OR_RETURN(decoder_.cursor, ctx_.adapter->OpenCursor());
    decoder_.next_tuple = 0;
    return Status::OK();
  }
  // The reorder window bounds how far workers run ahead of the consumer —
  // it is both the early-Close byte budget (at most `window_` unmerged
  // morsels are ever in flight) and the cap on staged-result memory.
  window_ = num_threads_;
  slots_.resize(window_);
  workers_started_ = true;
  std::lock_guard<std::mutex> lock(mu_);
  SubmitWorkersLocked();
  return Status::OK();
}

void RawScanOp::SubmitWorkersLocked() {
  const size_t limit = std::min<size_t>(morsels_.size(), merge_idx_ + window_);
  const size_t claimable = next_claim_ < limit ? limit - next_claim_ : 0;
  const int target =
      static_cast<int>(std::min<size_t>(num_threads_, claimable));
  while (!cancel_.load(std::memory_order_relaxed) && active_tasks_ < target) {
    ++active_tasks_;
    pool_->Submit([this] { WorkerLoop(); });
  }
}

void RawScanOp::WorkerLoop() {
  MorselDecoder decoder;  // cursor opened on the first morsel needing it
  while (true) {
    size_t k;
    {
      // Claim the next morsel the window exposes, or exit: a worker never
      // parks on a pool thread waiting for the consumer (the consumer
      // resubmits workers as it merges — see SubmitWorkersLocked). The
      // exit is accounted in the same critical section as the decision,
      // so a consumer merging next always sees this worker gone and tops
      // the pool up instead of waiting on a claim nobody will make.
      std::lock_guard<std::mutex> lock(mu_);
      if (cancel_ || next_claim_ >= morsels_.size() ||
          next_claim_ >= merge_idx_ + window_) {
        --active_tasks_;
        // Notify under the lock: once the joining thread observes
        // active_tasks_ == 0 it may destroy this operator.
        done_cv_.notify_all();
        return;
      }
      k = next_claim_++;
    }
    MorselResult* result = &slots_[k % slots_.size()];
    DecodeMorsel(ctx_, morsels_[k], &decoder, result);
    {
      std::lock_guard<std::mutex> lock(mu_);
      result->ready = true;
    }
    result_cv_.notify_all();
  }
}

Result<size_t> RawScanOp::Next(RowBatch* batch) {
  // One morsel of tuples is tokenized/parsed at a time, then handed out
  // batch-by-batch: the whole tokenize + map-probe loop runs without a
  // virtual call per tuple. Rows move out by swap, returning the batch
  // slot's old storage to the recycler for a later morsel to reuse.
  batch->Clear();
  while (!batch->full()) {
    if (out_idx_ >= out_size_) {
      if (eof_) break;
      // Morsel boundary: the cancellation/deadline poll point. Erroring
      // here abandons the pipeline; the destructor joins the workers and
      // ends the scan epoch.
      NODB_RETURN_IF_ERROR(CheckControl(control_));
      NODB_RETURN_IF_ERROR(NextMorsel());
      continue;
    }
    std::swap(batch->PushRow(), out_rows_[out_idx_++]);
  }
  return batch->size();
}

Status RawScanOp::NextMorsel() {
  MorselResult* result = nullptr;
  uint64_t total = 0;
  if (morsels_.empty()) {
    // Inline: the next stripe. Its population is pinned once a full scan
    // completed (the positional map's total) or up front for fixed-stride
    // sources and promoted tables.
    total = KnownTotalTuples();
    if (total > 0 && emitted_ >= total) {
      eof_ = true;
      return Status::OK();
    }
    const int tps = ctx_.tuples_per_stripe;
    uint64_t end = (emitted_ / tps + 1) * tps;
    if (total > 0) end = std::min(end, total);
    result = &slots_[0];
    // Decode into the rows just emitted (swapped back below), so the scan
    // keeps one set of row storage instead of alternating between two.
    std::swap(result->rows, out_rows_);
    DecodeMorsel(ctx_, Morsel{emitted_, end, true, total}, &decoder_, result);
  } else {
    result = &slots_[merge_idx_ % slots_.size()];
    std::unique_lock<std::mutex> lock(mu_);
    result_cv_.wait(lock, [&] { return result->ready; });
  }

  // Whatever was learned before a failure still lands in the map; the
  // error then surfaces exactly where a serial scan would have hit it
  // (all rows of earlier morsels were emitted, this morsel's are dropped).
  if (ctx_.pm != nullptr && !result->frag.empty()) {
    ctx_.pm->InstallFragment(result->frag, emitted_, epoch_token_,
                             result->filter_indexed);
  }
  if (!result->status.ok()) return result->status;
  MergeResult(result);
  std::swap(out_rows_, result->rows);
  out_size_ = result->num_rows;
  out_idx_ = 0;

  bool last;
  if (morsels_.empty()) {
    // A full stripe can end exactly on the table's last tuple (row count a
    // multiple of the stripe size): with a known total that is EOF too.
    last = result->eof || (total > 0 && emitted_ >= total);
  } else {
    std::lock_guard<std::mutex> lock(mu_);
    result->ready = false;
    ++merge_idx_;
    SubmitWorkersLocked();  // the window moved: re-top the pool
    last = merge_idx_ >= morsels_.size();
  }
  if (last) {
    eof_ = true;
    FlushPendingStripe(true);
    // Only a pass that read the file to its end learned the row count.
    if (result->from_file) FinalizeEof();
  }
  return Status::OK();
}

void RawScanOp::MergeResult(MorselResult* result) {
  const std::vector<int>& output = ctx_.attrs.output_attrs;
  // Access accounting, flushed once per morsel by the merge thread.
  if (ColumnAccessTracker* tracker = runtime_->access.get();
      tracker != nullptr) {
    for (int a : output) {
      const ColumnAccessCounters& c = result->access[a];
      tracker->RecordParsed(a, c.rows_parsed, c.bytes_parsed);
      tracker->RecordCacheServed(a, c.rows_from_cache);
      tracker->RecordPromotedServed(a, c.rows_from_promoted);
    }
  }

  // Statistics, replayed in file order: the values the cache buffer
  // carries first, then the rest.
  if (ctx_.stats != nullptr) {
    for (int a : output) {
      if (!result->stats_attr[a]) continue;
      for (const std::vector<Value>* staged :
           {&result->cache_vals[a], &result->stats_vals[a]}) {
        if (!staged->empty()) {
          ctx_.stats->AddValues(a, staged->data(), staged->size());
        }
      }
    }
  }

  // Cache stitching: append this morsel's parsed values to the stripe
  // being assembled, publishing every stripe that fills. A stripe-aligned
  // morsel hands its buffers over whole.
  if (ctx_.cache != nullptr) {
    const int tps = ctx_.tuples_per_stripe;
    const uint64_t n = result->records;
    for (uint64_t r = 0; r < n;) {
      const uint64_t g = emitted_ + r;
      const uint64_t seg = std::min<uint64_t>(n - r, tps - g % tps);
      if (pending_.filled == 0) pending_.stripe = g / tps;
      for (int a : output) {
        std::vector<Value>& src = result->cache_vals[a];
        // A short buffer (phase-2 column after a non-qualifying record)
        // leaves a gap that keeps the stripe out of the cache.
        if (!result->cache_attr[a] || src.size() < r + seg) continue;
        std::vector<Value>& dst = pending_.vals[a];
        if (dst.empty() && r == 0 && src.size() == seg) {
          dst = std::move(src);
        } else {
          dst.insert(dst.end(), std::make_move_iterator(src.begin() + r),
                     std::make_move_iterator(src.begin() + r + seg));
        }
      }
      pending_.filled += static_cast<int>(seg);
      if (pending_.filled == tps) FlushPendingStripe(false);
      r += seg;
    }
  }
  emitted_ += result->records;
}

void RawScanOp::FlushPendingStripe(bool final_flush) {
  const int n = pending_.filled;
  // A partial stripe is publishable only when the scan is ending there —
  // a mid-scan partial stripe would grow, and the cache keys whole chunks.
  if (n == 0 || (n < ctx_.tuples_per_stripe && !final_flush)) return;
  for (int a : ctx_.attrs.output_attrs) {
    std::vector<Value>& vals = pending_.vals[a];
    if (static_cast<int>(vals.size()) == n &&
        !ctx_.cache->Contains(pending_.stripe, a)) {
      ctx_.cache->Put(pending_.stripe, a, std::move(vals));
    }
    vals.clear();
  }
  pending_.filled = 0;
}

void RawScanOp::FinalizeEof() {
  runtime_->row_count = static_cast<int64_t>(emitted_);
  if (ctx_.stats != nullptr) runtime_->stats_populated = true;
}

void RawScanOp::CancelAndJoin() {
  if (!workers_started_) return;
  cancel_.store(true);
  // Workers notice the flag at their next claim (queued-but-unstarted
  // tasks immediately) or mid-morsel at the per-record poll; none of them
  // blocks, so the join is bounded by one morsel's work.
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return active_tasks_ == 0; });
  workers_started_ = false;
}

Status RawScanOp::Close() {
  CancelAndJoin();
  if (opts_.collect_stats && runtime_->stats != nullptr) {
    runtime_->stats->FinalizeAll();
  }
  if (epoch_token_ != 0 && runtime_->pmap != nullptr) {
    runtime_->pmap->EndEpoch(epoch_token_);
    epoch_token_ = 0;
  }
  return Status::OK();
}

}  // namespace nodb
