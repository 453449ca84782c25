#include "adaptive/promoted_columns.h"

namespace nodb {

PromotedColumns::PromotedColumns(int num_attrs)
    : num_attrs_(num_attrs),
      chunks_(num_attrs),
      info_(num_attrs),
      flags_(new std::atomic<bool>[num_attrs]) {
  for (int a = 0; a < num_attrs; ++a) flags_[a].store(false);
}

PromotedColumns::Chunk PromotedColumns::ChunkFor(uint64_t stripe,
                                                 int attr) const {
  if (!IsPromoted(attr)) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<Chunk>& col = chunks_[attr];
  if (stripe >= col.size()) return nullptr;
  return col[stripe];
}

std::vector<int> PromotedColumns::promoted_attrs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> out;
  for (int a = 0; a < num_attrs_; ++a) {
    if (info_[a].promoted) out.push_back(a);
  }
  return out;
}

std::vector<PromotedColumns::ColumnInfo> PromotedColumns::InfoSnapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return info_;
}

PromotedColumns::Counters PromotedColumns::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void PromotedColumns::Install(int attr, std::vector<Chunk> chunks,
                              uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  ColumnInfo& info = info_[attr];
  if (info.promoted) {
    memory_bytes_.fetch_sub(info.bytes, std::memory_order_relaxed);
  }
  chunks_[attr] = std::move(chunks);
  info.promoted = true;
  info.bytes = bytes;
  memory_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  ++counters_.promotions;
  flags_[attr].store(true, std::memory_order_release);
}

uint64_t PromotedColumns::Demote(int attr) {
  std::lock_guard<std::mutex> lock(mu_);
  ColumnInfo& info = info_[attr];
  if (!info.promoted) return 0;
  // Flip the fast-path flag first so new readers fall back to the raw path
  // before the chunks go away (readers mid-stripe keep their snapshots).
  flags_[attr].store(false, std::memory_order_release);
  uint64_t freed = info.bytes;
  chunks_[attr].clear();
  chunks_[attr].shrink_to_fit();
  memory_bytes_.fetch_sub(freed, std::memory_order_relaxed);
  info = ColumnInfo{};
  ++counters_.demotions;
  return freed;
}

void PromotedColumns::SetMarks(int attr, uint64_t work_mark,
                               uint64_t served_mark) {
  std::lock_guard<std::mutex> lock(mu_);
  info_[attr].work_mark = work_mark;
  info_[attr].served_mark = served_mark;
}

}  // namespace nodb
