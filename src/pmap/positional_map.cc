#include "pmap/positional_map.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "io/file.h"
#include "util/fs_util.h"
#include "util/str_conv.h"

namespace nodb {

PositionalMap::PositionalMap(int num_attrs, Options options)
    : num_attrs_(num_attrs), options_(options) {
  assert(options_.tuples_per_chunk > 0);
  attr_membership_.resize(num_attrs);
}

// ---------------------------------------------------------------------
// Spine
// ---------------------------------------------------------------------

PositionalMap::Stripe& PositionalMap::GetStripe(uint64_t stripe) {
  return stripes_[stripe];
}

void PositionalMap::SetRowStartLocked(uint64_t tuple, uint64_t offset) {
  Stripe& s = GetStripe(stripe_of(tuple));
  if (s.row_starts.empty()) {
    s.row_starts.assign(options_.tuples_per_chunk, kNoRowStart);
    memory_bytes_ += s.spine_bytes();
    // The spine is never evicted (it is the "minimal end-of-line map"), but
    // its growth must push attribute chunks out to honour the threshold.
    EnforceBudget();
  }
  uint64_t idx = tuple % options_.tuples_per_chunk;
  s.row_starts[idx] = offset;
  // Advance the contiguous-known watermark.
  while (true) {
    uint64_t t = contiguous_rows_known_;
    auto it = stripes_.find(stripe_of(t));
    if (it == stripes_.end() || it->second.row_starts.empty()) break;
    if (it->second.row_starts[t % options_.tuples_per_chunk] == kNoRowStart) {
      break;
    }
    ++contiguous_rows_known_;
  }
}

void PositionalMap::SetRowStart(uint64_t tuple, uint64_t offset) {
  std::lock_guard<std::mutex> lock(mu_);
  SetRowStartLocked(tuple, offset);
}

std::optional<uint64_t> PositionalMap::RowStart(uint64_t tuple) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = stripes_.find(tuple / options_.tuples_per_chunk);
  if (it == stripes_.end() || it->second.row_starts.empty()) {
    return std::nullopt;
  }
  uint64_t v = it->second.row_starts[tuple % options_.tuples_per_chunk];
  if (v == kNoRowStart) return std::nullopt;
  return v;
}

uint64_t PositionalMap::contiguous_rows_known() const {
  std::lock_guard<std::mutex> lock(mu_);
  return contiguous_rows_known_;
}

// ---------------------------------------------------------------------
// Epochs
// ---------------------------------------------------------------------

uint64_t PositionalMap::BeginEpoch() {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t token = ++next_epoch_;
  active_epochs_.push_back(token);
  return token;
}

void PositionalMap::EndEpoch(uint64_t token) {
  if (token == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::find(active_epochs_.begin(), active_epochs_.end(), token);
  if (it != active_epochs_.end()) active_epochs_.erase(it);
}

size_t PositionalMap::active_epoch_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_epochs_.size();
}

bool PositionalMap::EpochActive(uint64_t token) const {
  return token != 0 && std::find(active_epochs_.begin(), active_epochs_.end(),
                                 token) != active_epochs_.end();
}

// ---------------------------------------------------------------------
// Groups
// ---------------------------------------------------------------------

int PositionalMap::InternGroup(const std::vector<int>& attrs) {
  // Key on the *sorted* attr set so the same combination requested in a
  // different order reuses the group.
  std::vector<int> sorted = attrs;
  std::sort(sorted.begin(), sorted.end());
  std::string key;
  for (int a : sorted) {
    AppendInt64(&key, a);
    key.push_back(',');
  }
  auto [it, inserted] = group_index_.try_emplace(
      key, static_cast<int>(groups_.size()));
  if (inserted) {
    groups_.push_back(Group{attrs});
    int gid = it->second;
    for (size_t col = 0; col < attrs.size(); ++col) {
      attr_membership_[attrs[col]].emplace_back(gid, static_cast<int>(col));
    }
  }
  return it->second;
}

int PositionalMap::ColumnInGroup(int gid, int attr) const {
  const std::vector<int>& attrs = groups_[gid].attrs;
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (attrs[i] == attr) return static_cast<int>(i);
  }
  return -1;
}

// ---------------------------------------------------------------------
// Insertion
// ---------------------------------------------------------------------

PositionalMap::Chunk* PositionalMap::GetOrCreateChunk(
    uint64_t stripe, const std::vector<int>& attrs, int* gid_out) {
  int gid = InternGroup(attrs);
  *gid_out = gid;
  Stripe& s = GetStripe(stripe);
  auto it = s.chunks.find(gid);
  Chunk* chunk;
  if (it != s.chunks.end() && !it->second->spilled) {
    chunk = it->second.get();
  } else {
    auto owned = std::make_unique<Chunk>();
    chunk = owned.get();
    chunk->group_id = gid;
    chunk->data.assign(
        static_cast<size_t>(options_.tuples_per_chunk) * attrs.size(),
        kUnknown);
    memory_bytes_ += chunk->bytes();
    lru_.emplace_front(stripe, gid);
    chunk->lru_pos = lru_.begin();
    if (it != s.chunks.end()) {
      // Replacing a spilled chunk: forget the spill copy.
      RemoveFileIfExists(SpillPath(stripe, gid));
      it->second = std::move(owned);
    } else {
      s.chunks.emplace(gid, std::move(owned));
    }
  }
  TouchLru(stripe, chunk);
  return chunk;
}

int PositionalMap::BeginStripeInsert(uint64_t stripe,
                                     const std::vector<int>& attrs) {
  if (attrs.empty()) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  int gid = -1;
  GetOrCreateChunk(stripe, attrs, &gid);
  ++open_insert_chunks_;
  // Encode (stripe, gid) into the opaque id via a side table-free scheme:
  // the caller passes tuple/attr back, so we only need to find the chunk
  // again cheaply. We return gid and rely on tuple->stripe.
  return gid;
}

void PositionalMap::InsertPosition(int chunk_id, uint64_t tuple, int attr,
                                   uint32_t rel_offset) {
  assert(chunk_id >= 0);
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t stripe = stripe_of(tuple);
  Stripe& s = GetStripe(stripe);
  auto it = s.chunks.find(chunk_id);
  assert(it != s.chunks.end());
  Chunk* chunk = it->second.get();
  int col = ColumnInGroup(chunk_id, attr);
  assert(col >= 0);
  size_t group_size = groups_[chunk_id].attrs.size();
  size_t idx =
      (tuple % options_.tuples_per_chunk) * group_size + static_cast<size_t>(col);
  if (chunk->data[idx] == kUnknown && rel_offset != kUnknown) {
    ++num_positions_;
  }
  chunk->data[idx] = rel_offset;
}

void PositionalMap::EndStripeInsert() {
  std::lock_guard<std::mutex> lock(mu_);
  // Balanced against BeginStripeInsert: eviction stays deferred until the
  // *last* open stripe insertion ends (the seed zeroed the counter here,
  // which assumed a single mutator).
  if (open_insert_chunks_ > 0) --open_insert_chunks_;
  EnforceBudget();
}

void PositionalMap::InstallFragment(const PmapFragment& frag,
                                    uint64_t first_tuple,
                                    uint64_t epoch_token,
                                    bool filter_indexed) {
  if (frag.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.fragments_installed;
  const int n = frag.num_records();
  const int per_stripe = options_.tuples_per_chunk;

  // Spine first: row starts are what warm scans seek by, and the cache-only
  // variant installs nothing else.
  for (int i = 0; i < n; ++i) {
    SetRowStartLocked(first_tuple + i, frag.row_start(i));
  }

  // Attribute positions, stripe by overlapped stripe.
  std::vector<int> fresh;        // attrs this stripe does not index yet
  std::vector<int> fresh_idx;    // their index in frag.attrs()
  std::vector<int> slice;
  for (int r0 = 0; r0 < n;) {
    const uint64_t tuple0 = first_tuple + r0;
    const uint64_t stripe = tuple0 / per_stripe;
    const int in_stripe0 = static_cast<int>(tuple0 % per_stripe);
    const int r1 = std::min<int>(n, r0 + (per_stripe - in_stripe0));

    if (!frag.attrs().empty()) {
      // Skip attributes the stripe already indexes — a concurrent scan (or
      // an earlier query) may have installed them since this fragment was
      // staged; re-inserting would duplicate positions across chunks.
      fresh.clear();
      fresh_idx.clear();
      for (size_t i = 0; i < frag.attrs().size(); ++i) {
        int a = frag.attrs()[i];
        bool has = false;
        auto sit = stripes_.find(stripe);
        if (filter_indexed && sit != stripes_.end()) {
          for (auto [gid, col] : attr_membership_[a]) {
            (void)col;
            if (sit->second.chunks.count(gid) > 0) {
              has = true;
              break;
            }
          }
        }
        if (!has) {
          fresh.push_back(a);
          fresh_idx.push_back(static_cast<int>(i));
        }
      }

      // Cache-sized sub-chunks, admitted one by one under the budget.
      for (size_t begin = 0; begin < fresh.size();
           begin += kMaxGroupAttrs) {
        size_t end = std::min(fresh.size(), begin + kMaxGroupAttrs);
        slice.assign(fresh.begin() + begin, fresh.begin() + end);
        uint64_t chunk_bytes = static_cast<uint64_t>(per_stripe) *
                               slice.size() * sizeof(uint32_t);
        if (!CanAdmit(chunk_bytes)) continue;  // budget full of fresh chunks
        int gid = -1;
        Chunk* chunk = GetOrCreateChunk(stripe, slice, &gid);
        chunk->epoch = epoch_token;
        const size_t group_size = groups_[gid].attrs.size();
        for (size_t i = begin; i < end; ++i) {
          const int col = ColumnInGroup(gid, fresh[i]);
          const int src = fresh_idx[i];
          for (int r = r0; r < r1; ++r) {
            uint32_t pos = frag.position(r, src);
            if (pos == kUnknown) continue;
            uint32_t& cell =
                chunk->data[static_cast<size_t>(in_stripe0 + (r - r0)) *
                                group_size +
                            col];
            if (cell == kUnknown) ++num_positions_;
            cell = pos;
          }
        }
      }
    }
    r0 = r1;
  }
  EnforceBudget();
}

bool PositionalMap::CanAdmit(uint64_t bytes) {
  uint64_t projected = memory_bytes_ + bytes;
  // Walk would-be victims from the LRU tail; admission fails if making room
  // requires evicting a chunk installed by a still-running scan.
  auto it = lru_.rbegin();
  while (projected > options_.budget_bytes && it != lru_.rend()) {
    auto [victim_stripe, victim_gid] = *it;
    const Chunk* victim =
        stripes_[victim_stripe].chunks.find(victim_gid)->second.get();
    if (EpochActive(victim->epoch)) return false;
    projected -= victim->bytes();
    ++it;
  }
  return projected <= options_.budget_bytes;
}

// ---------------------------------------------------------------------
// Lookup
// ---------------------------------------------------------------------

PositionalMap::Chunk* PositionalMap::FetchChunk(uint64_t stripe, int gid) {
  auto sit = stripes_.find(stripe);
  if (sit == stripes_.end()) return nullptr;
  auto cit = sit->second.chunks.find(gid);
  if (cit == sit->second.chunks.end()) return nullptr;
  Chunk* chunk = cit->second.get();
  if (chunk->spilled) {
    if (!ReloadChunk(stripe, chunk).ok()) return nullptr;
    // A pathologically small budget can re-evict the chunk immediately
    // (it is the LRU tail if it is the only resident chunk).
    if (chunk->spilled) return nullptr;
  }
  TouchLru(stripe, chunk);
  return chunk;
}

std::optional<uint32_t> PositionalMap::Lookup(uint64_t tuple, int attr) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.lookups;
  uint64_t stripe = stripe_of(tuple);
  for (auto [gid, col] : attr_membership_[attr]) {
    Chunk* chunk = FetchChunk(stripe, gid);
    if (chunk == nullptr) continue;
    size_t group_size = groups_[gid].attrs.size();
    uint32_t v = chunk->data[(tuple % options_.tuples_per_chunk) * group_size +
                             static_cast<size_t>(col)];
    if (v != kUnknown) {
      ++counters_.exact_hits;
      return v;
    }
  }
  return std::nullopt;
}

std::optional<PositionalMap::Anchor> PositionalMap::AnchorAtOrBelow(
    uint64_t tuple, int attr) {
  std::lock_guard<std::mutex> lock(mu_);
  for (int a = attr; a >= 0; --a) {
    // Bypass Lookup's counters for the probe loop; count one anchor hit.
    uint64_t stripe = stripe_of(tuple);
    for (auto [gid, col] : attr_membership_[a]) {
      Chunk* chunk = FetchChunk(stripe, gid);
      if (chunk == nullptr) continue;
      size_t group_size = groups_[gid].attrs.size();
      uint32_t v =
          chunk->data[(tuple % options_.tuples_per_chunk) * group_size +
                      static_cast<size_t>(col)];
      if (v != kUnknown) {
        ++counters_.anchor_hits;
        return Anchor{a, v};
      }
    }
  }
  return std::nullopt;
}

std::optional<PositionalMap::Anchor> PositionalMap::AnchorAbove(uint64_t tuple,
                                                                int attr) {
  std::lock_guard<std::mutex> lock(mu_);
  for (int a = attr + 1; a < num_attrs_; ++a) {
    uint64_t stripe = stripe_of(tuple);
    for (auto [gid, col] : attr_membership_[a]) {
      Chunk* chunk = FetchChunk(stripe, gid);
      if (chunk == nullptr) continue;
      size_t group_size = groups_[gid].attrs.size();
      uint32_t v =
          chunk->data[(tuple % options_.tuples_per_chunk) * group_size +
                      static_cast<size_t>(col)];
      if (v != kUnknown) {
        ++counters_.anchor_hits;
        return Anchor{a, v};
      }
    }
  }
  return std::nullopt;
}

bool PositionalMap::StripeHasAttr(uint64_t stripe, int attr) {
  std::lock_guard<std::mutex> lock(mu_);
  auto sit = stripes_.find(stripe);
  if (sit == stripes_.end()) return false;
  for (auto [gid, col] : attr_membership_[attr]) {
    (void)col;
    auto cit = sit->second.chunks.find(gid);
    if (cit != sit->second.chunks.end()) return true;  // resident or spilled
  }
  return false;
}

int PositionalMap::FillStripePositions(uint64_t stripe, int attr,
                                        uint32_t* out, int n) {
  for (int i = 0; i < n; ++i) out[i] = kUnknown;
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.lookups;
  int filled = 0;
  for (auto [gid, col] : attr_membership_[attr]) {
    Chunk* chunk = FetchChunk(stripe, gid);
    if (chunk == nullptr) continue;
    size_t group_size = groups_[gid].attrs.size();
    for (int i = 0; i < n; ++i) {
      if (out[i] != kUnknown) continue;
      uint32_t v = chunk->data[static_cast<size_t>(i) * group_size +
                               static_cast<size_t>(col)];
      if (v != kUnknown) {
        out[i] = v;
        ++filled;
      }
    }
  }
  if (filled > 0) ++counters_.exact_hits;
  return filled;
}

std::vector<int> PositionalMap::IndexedAttrsForStripe(uint64_t stripe) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> attrs;
  auto sit = stripes_.find(stripe);
  if (sit == stripes_.end()) return attrs;
  for (const auto& [gid, chunk] : sit->second.chunks) {
    for (int a : groups_[gid].attrs) attrs.push_back(a);
  }
  std::sort(attrs.begin(), attrs.end());
  attrs.erase(std::unique(attrs.begin(), attrs.end()), attrs.end());
  return attrs;
}

bool PositionalMap::StripeAttrsShareChunk(uint64_t stripe,
                                          const std::vector<int>& attrs) {
  std::lock_guard<std::mutex> lock(mu_);
  auto sit = stripes_.find(stripe);
  if (sit == stripes_.end()) return false;
  for (const auto& [gid, chunk] : sit->second.chunks) {
    const std::vector<int>& group_attrs = groups_[gid].attrs;
    bool covers = true;
    for (int a : attrs) {
      if (std::find(group_attrs.begin(), group_attrs.end(), a) ==
          group_attrs.end()) {
        covers = false;
        break;
      }
    }
    if (covers) return true;
  }
  return false;
}

// ---------------------------------------------------------------------
// Budget, eviction, spilling
// ---------------------------------------------------------------------

void PositionalMap::TouchLru(uint64_t stripe, Chunk* chunk) {
  (void)stripe;
  if (chunk->lru_pos != lru_.begin()) {
    lru_.splice(lru_.begin(), lru_, chunk->lru_pos);
    chunk->lru_pos = lru_.begin();
  }
}

void PositionalMap::EnforceBudget() {
  if (open_insert_chunks_ > 0) return;  // deferred until EndStripeInsert
  while (memory_bytes_ > options_.budget_bytes && !lru_.empty()) {
    EvictOne();
  }
}

void PositionalMap::EvictOne() {
  auto [stripe, gid] = lru_.back();
  lru_.pop_back();
  Stripe& s = stripes_[stripe];
  auto cit = s.chunks.find(gid);
  assert(cit != s.chunks.end());
  Chunk* chunk = cit->second.get();
  uint64_t known = 0;
  for (uint32_t v : chunk->data) {
    if (v != kUnknown) ++known;
  }
  memory_bytes_ -= chunk->bytes();
  num_positions_ -= known;
  ++counters_.chunks_evicted;
  if (!options_.spill_dir.empty() && SpillChunk(stripe, chunk).ok()) {
    ++counters_.chunks_spilled;
    chunk->spilled = true;
    chunk->data.clear();
    chunk->data.shrink_to_fit();
  } else {
    s.chunks.erase(cit);
  }
}

std::string PositionalMap::SpillPath(uint64_t stripe, int gid) const {
  std::string path = options_.spill_dir;
  path += "/s";
  AppendInt64(&path, static_cast<int64_t>(stripe));
  path += "_g";
  AppendInt64(&path, gid);
  path += ".pmchunk";
  return path;
}

Status PositionalMap::SpillChunk(uint64_t stripe, Chunk* chunk) {
  NODB_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> f,
                        WritableFile::Create(SpillPath(stripe,
                                                       chunk->group_id)));
  std::string_view bytes(reinterpret_cast<const char*>(chunk->data.data()),
                         chunk->data.size() * sizeof(uint32_t));
  NODB_RETURN_IF_ERROR(f->Append(bytes));
  return f->Close();
}

Status PositionalMap::ReloadChunk(uint64_t stripe, Chunk* chunk) {
  NODB_ASSIGN_OR_RETURN(
      std::string bytes,
      ReadFileToString(SpillPath(stripe, chunk->group_id)));
  size_t group_size = groups_[chunk->group_id].attrs.size();
  size_t expect =
      static_cast<size_t>(options_.tuples_per_chunk) * group_size *
      sizeof(uint32_t);
  if (bytes.size() != expect) {
    return Status::Corruption("spilled chunk has wrong size");
  }
  chunk->data.resize(expect / sizeof(uint32_t));
  memcpy(chunk->data.data(), bytes.data(), expect);
  chunk->spilled = false;
  memory_bytes_ += chunk->bytes();
  uint64_t known = 0;
  for (uint32_t v : chunk->data) {
    if (v != kUnknown) ++known;
  }
  num_positions_ += known;
  ++counters_.chunks_reloaded;
  lru_.emplace_front(stripe, chunk->group_id);
  chunk->lru_pos = lru_.begin();
  EnforceBudget();
  return Status::OK();
}

uint64_t PositionalMap::memory_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return memory_bytes_;
}

uint64_t PositionalMap::num_positions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return num_positions_;
}

PositionalMap::Counters PositionalMap::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::vector<PositionalMap::ExportedStripe> PositionalMap::ExportState()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ExportedStripe> out;
  out.reserve(stripes_.size());
  const size_t per_stripe = static_cast<size_t>(options_.tuples_per_chunk);
  for (const auto& [stripe_idx, stripe] : stripes_) {
    ExportedStripe exp;
    exp.stripe = stripe_idx;
    if (stripe.row_starts.empty()) {
      exp.row_starts.assign(per_stripe, kNoRowStart);
    } else {
      exp.row_starts = stripe.row_starts;
    }

    // Union of attributes with resident (non-spilled) chunks, ascending.
    for (const auto& [gid, chunk] : stripe.chunks) {
      if (chunk->spilled) continue;
      for (int a : groups_[gid].attrs) exp.attrs.push_back(a);
    }
    std::sort(exp.attrs.begin(), exp.attrs.end());
    exp.attrs.erase(std::unique(exp.attrs.begin(), exp.attrs.end()),
                    exp.attrs.end());

    if (!exp.attrs.empty()) {
      exp.positions.assign(per_stripe * exp.attrs.size(), kUnknown);
      for (size_t ai = 0; ai < exp.attrs.size(); ++ai) {
        const int attr = exp.attrs[ai];
        for (auto [gid, col] : attr_membership_[attr]) {
          auto cit = stripe.chunks.find(gid);
          if (cit == stripe.chunks.end() || cit->second->spilled) continue;
          const Chunk& chunk = *cit->second;
          const size_t group_size = groups_[gid].attrs.size();
          for (size_t r = 0; r < per_stripe; ++r) {
            uint32_t& cell = exp.positions[r * exp.attrs.size() + ai];
            if (cell != kUnknown) continue;  // first chunk wins, as in Lookup
            uint32_t v = chunk.data[r * group_size + static_cast<size_t>(col)];
            if (v != kUnknown) cell = v;
          }
        }
      }
    }
    out.push_back(std::move(exp));
  }
  std::sort(out.begin(), out.end(),
            [](const ExportedStripe& a, const ExportedStripe& b) {
              return a.stripe < b.stripe;
            });
  return out;
}

void PositionalMap::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  stripes_.clear();
  lru_.clear();
  groups_.clear();
  group_index_.clear();
  attr_membership_.assign(num_attrs_, {});
  memory_bytes_ = 0;
  num_positions_ = 0;
  contiguous_rows_known_ = 0;
  open_insert_chunks_ = 0;
}

}  // namespace nodb
