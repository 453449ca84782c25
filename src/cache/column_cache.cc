#include "cache/column_cache.h"

#include <algorithm>

namespace nodb {

namespace {
/// Fixed per-entry bookkeeping charge (hash node + LRU node, approximate).
constexpr uint64_t kEntryOverhead = 64;
}  // namespace

ColumnCache::ColumnCache(std::vector<TypeId> types, Options options)
    : types_(std::move(types)), options_(options) {
  int max_class = 0;
  for (TypeId t : types_) max_class = std::max(max_class, ConversionCostClass(t));
  lru_by_class_.resize(max_class + 1);
}

uint64_t ColumnCache::BytesOf(const std::vector<Value>& values,
                              TypeId type) {
  uint64_t bytes = values.size() * sizeof(Value);
  if (type == TypeId::kString) {
    for (const Value& v : values) {
      if (!v.is_null()) bytes += v.str().size();
    }
  }
  return bytes + kEntryOverhead;
}

ColumnCache::Column ColumnCache::Get(uint64_t stripe, int attr) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(KeyOf(stripe, attr));
  if (it == entries_.end()) {
    ++counters_.misses;
    return nullptr;
  }
  ++counters_.hits;
  Entry& e = it->second;
  std::list<uint64_t>& lru = lru_by_class_[e.cost_class];
  if (e.lru_pos != lru.begin()) {
    lru.splice(lru.begin(), lru, e.lru_pos);
    e.lru_pos = lru.begin();
  }
  return e.values;
}

bool ColumnCache::Contains(uint64_t stripe, int attr) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.find(KeyOf(stripe, attr)) != entries_.end();
}

void ColumnCache::Put(uint64_t stripe, int attr, std::vector<Value> values) {
  uint64_t key = KeyOf(stripe, attr);
  uint64_t bytes = BytesOf(values, types_[attr]);
  int cost_class = ConversionCostClass(types_[attr]);
  auto column =
      std::make_shared<const std::vector<Value>>(std::move(values));
  std::lock_guard<std::mutex> lock(mu_);
  if (bytes > EffectiveBudget()) return;  // would evict everything else
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    Entry& e = it->second;
    memory_bytes_ -= e.bytes;
    e.values = std::move(column);
    e.bytes = bytes;
    memory_bytes_ += bytes;
    std::list<uint64_t>& lru = lru_by_class_[e.cost_class];
    lru.splice(lru.begin(), lru, e.lru_pos);
    e.lru_pos = lru.begin();
  } else {
    Entry e;
    e.values = std::move(column);
    e.bytes = bytes;
    e.cost_class = cost_class;
    lru_by_class_[cost_class].push_front(key);
    e.lru_pos = lru_by_class_[cost_class].begin();
    memory_bytes_ += bytes;
    entries_.emplace(key, std::move(e));
  }
  ++counters_.inserts;
  EnforceBudget();
}

uint64_t ColumnCache::EffectiveBudget() const {
  if (options_.budget_bytes == UINT64_MAX) return UINT64_MAX;
  return options_.budget_bytes > reserved_bytes_
             ? options_.budget_bytes - reserved_bytes_
             : 0;
}

uint64_t ColumnCache::ReleaseAttr(int attr) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t freed = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (static_cast<int>(it->first & 0xFFFF) == attr) {
      Entry& e = it->second;
      lru_by_class_[e.cost_class].erase(e.lru_pos);
      freed += e.bytes;
      ++counters_.released;
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  memory_bytes_ -= freed;
  return freed;
}

void ColumnCache::SetReservedBytes(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  reserved_bytes_ = bytes;
  EnforceBudget();
}

uint64_t ColumnCache::reserved_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reserved_bytes_;
}

void ColumnCache::EnforceBudget() {
  while (memory_bytes_ > EffectiveBudget()) {
    // Evict from the cheapest-to-reconvert class that has entries.
    bool evicted = false;
    for (std::list<uint64_t>& lru : lru_by_class_) {
      if (lru.empty()) continue;
      uint64_t victim = lru.back();
      lru.pop_back();
      auto it = entries_.find(victim);
      memory_bytes_ -= it->second.bytes;
      entries_.erase(it);
      ++counters_.evictions;
      evicted = true;
      break;
    }
    if (!evicted) break;
  }
}

uint64_t ColumnCache::memory_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return memory_bytes_;
}

double ColumnCache::utilization() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.budget_bytes == UINT64_MAX || options_.budget_bytes == 0) {
    return memory_bytes_ > 0 ? 1.0 : 0.0;
  }
  return static_cast<double>(memory_bytes_) /
         static_cast<double>(options_.budget_bytes);
}

ColumnCache::Counters ColumnCache::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::vector<ColumnCache::ExportedChunk> ColumnCache::ExportState() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ExportedChunk> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    ExportedChunk chunk;
    chunk.stripe = key >> 16;
    chunk.attr = static_cast<int>(key & 0xFFFF);
    chunk.values = entry.values;
    out.push_back(std::move(chunk));
  }
  std::sort(out.begin(), out.end(),
            [](const ExportedChunk& a, const ExportedChunk& b) {
              return a.stripe != b.stripe ? a.stripe < b.stripe
                                          : a.attr < b.attr;
            });
  return out;
}

void ColumnCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  for (auto& lru : lru_by_class_) lru.clear();
  memory_bytes_ = 0;
}

}  // namespace nodb
