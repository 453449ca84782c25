#include "stats/table_stats.h"

namespace nodb {

TableStats::TableStats(const Schema& schema) {
  builders_.reserve(schema.num_columns());
  for (int i = 0; i < schema.num_columns(); ++i) {
    builders_.push_back(
        std::make_unique<AttrStatsBuilder>(schema.column(i).type));
  }
  built_.resize(schema.num_columns());
}

bool TableStats::HasAttr(int attr) const {
  std::lock_guard<std::mutex> lock(mu_);
  return built_[attr] != nullptr;
}

TableStats::AttrStatsPtr TableStats::Attr(int attr) const {
  std::lock_guard<std::mutex> lock(mu_);
  return built_[attr];
}

void TableStats::AddValue(int attr, const Value& v) {
  std::lock_guard<std::mutex> lock(mu_);
  builders_[attr]->Add(v);
}

void TableStats::AddValues(int attr, const Value* values, size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  AttrStatsBuilder* builder = builders_[attr].get();
  for (size_t i = 0; i < n; ++i) builder->Add(values[i]);
}

void TableStats::Finalize(int attr) {
  std::lock_guard<std::mutex> lock(mu_);
  if (builders_[attr]->has_data()) {
    built_[attr] = std::make_shared<const AttrStats>(builders_[attr]->Build());
  }
}

void TableStats::FinalizeAll() {
  for (int i = 0; i < num_attrs(); ++i) Finalize(i);
}

std::vector<std::pair<int, TableStats::AttrStatsPtr>> TableStats::ExportBuilt()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<int, AttrStatsPtr>> out;
  for (size_t i = 0; i < built_.size(); ++i) {
    if (built_[i] != nullptr) out.emplace_back(static_cast<int>(i), built_[i]);
  }
  return out;
}

void TableStats::InstallSnapshot(int attr, AttrStats stats) {
  std::lock_guard<std::mutex> lock(mu_);
  built_[attr] = std::make_shared<const AttrStats>(std::move(stats));
}

}  // namespace nodb
