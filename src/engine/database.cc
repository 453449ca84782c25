#include "engine/database.h"

#include <algorithm>
#include <chrono>

#include "io/inflate_file.h"
#include "raw/parse_kernels.h"
#include "snapshot/snapshot.h"
#include "sql/parser.h"
#include "util/fs_util.h"
#include "util/stopwatch.h"

namespace nodb {

namespace {

/// Directory part of `path` ("" for bare filenames).
std::string DirName(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".")
                                    : path.substr(0, slash);
}

}  // namespace

Database::Database(EngineConfig config) : config_(std::move(config)) {}

Database::~Database() {
  StopPromoter();
  StopSnapshotWriter();
}

InSituOptions Database::MakeInSituOptions() const {
  InSituOptions opts;
  opts.use_positional_map = config_.positional_map;
  opts.use_cache = config_.cache;
  opts.collect_stats = config_.statistics;
  opts.selective_tokenizing = config_.selective_tokenizing;
  opts.selective_parsing = config_.selective_parsing;
  opts.selective_tuple_formation = config_.selective_tuple_formation;
  opts.index_combinations = config_.index_combinations;
  opts.index_intermediates = config_.index_intermediates;
  return opts;
}

Status Database::RegisterCommon(const std::string& name,
                                std::unique_ptr<TableRuntime> runtime) {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  tables_.emplace(name, std::move(runtime));
  return Status::OK();
}

Status Database::Open(const std::string& name, const std::string& path,
                      OpenOptions options) {
  if (config_.scalar_kernels) options.scalar_kernels = true;
  AdapterRegistry& registry = AdapterRegistry::Global();
  const AdapterFactory* factory = nullptr;
  std::unique_ptr<RandomAccessFile> file;  // adopted by the adapter
  // Compressed source? Check the magic before anything else — even with a
  // forced format — because the format's adapter must see the decompressed
  // byte stream, and the sniffers below must score decompressed head bytes.
  std::string sniff_path = path;
  {
    NODB_ASSIGN_OR_RETURN(auto probe, RandomAccessFile::Open(path));
    char magic[2];
    NODB_ASSIGN_OR_RETURN(
        uint64_t n,
        probe->Read(0, std::min<uint64_t>(sizeof(magic), probe->size()),
                    magic));
    if (InflateFile::IsGzip({magic, n})) {
      InflateOptions gz_opts;
      gz_opts.checkpoint_interval_bytes = config_.gz_checkpoint_bytes;
      NODB_ASSIGN_OR_RETURN(file,
                            InflateFile::Open(std::move(probe), gz_opts));
      // Sniffers score the *inner* name ("t.csv.gz" detects as csv), while
      // the adapter keeps the real on-disk path — snapshot fingerprints
      // must cover the compressed file.
      if (sniff_path.size() > 3 &&
          sniff_path.compare(sniff_path.size() - 3, 3, ".gz") == 0) {
        sniff_path.resize(sniff_path.size() - 3);
      }
    } else if (options.format.empty()) {
      file = std::move(probe);  // reuse the handle for sniffing + adoption
    }
  }
  if (!options.format.empty()) {
    factory = registry.Find(options.format);
    if (factory == nullptr) {
      return Status::InvalidArgument("unknown raw format '" + options.format +
                                     "'");
    }
  } else {
    // Sniff the file's first bytes and let the registered factories score it.
    char head[512];
    NODB_ASSIGN_OR_RETURN(
        uint64_t head_len,
        file->Read(0, std::min<uint64_t>(sizeof(head), file->size()), head));
    NODB_ASSIGN_OR_RETURN(factory,
                          registry.Detect(sniff_path, {head, head_len}));
  }
  NODB_ASSIGN_OR_RETURN(std::unique_ptr<RawSourceAdapter> adapter,
                        factory->Create(path, options, std::move(file)));

  auto rt = std::make_unique<TableRuntime>();
  rt->name = name;
  rt->schema = adapter->schema();
  rt->storage = TableStorage::kRaw;
  rt->tuples_per_chunk = config_.tuples_per_chunk;
  // Fixed-stride formats state their count in the header (-1 otherwise).
  rt->row_count = adapter->row_count_hint();
  const RawTraits& traits = adapter->traits();

  // Adaptive structures are format-independent; traits decide what earns
  // its keep. The spine (row-start map) is required by the cache's stripe
  // addressing, so a PositionalMap object exists whenever either structure
  // is enabled — but only for formats whose field positions vary (for
  // fixed-stride sources every position is arithmetic and there is nothing
  // to remember). The scan only uses *attribute positions* when
  // positional_map is set.
  if (traits.variable_positions && (config_.positional_map || config_.cache)) {
    PositionalMap::Options pm_opts;
    pm_opts.tuples_per_chunk = rt->tuples_per_chunk;
    pm_opts.budget_bytes = config_.pm_budget_bytes;
    pm_opts.spill_dir = config_.pm_spill_dir;
    rt->pmap = std::make_unique<PositionalMap>(rt->schema.num_columns(),
                                               pm_opts);
  }
  if (config_.cache) {
    ColumnCache::Options cache_opts;
    cache_opts.budget_bytes = config_.cache_budget_bytes;
    std::vector<TypeId> types;
    for (const Column& c : rt->schema.columns()) types.push_back(c.type);
    rt->cache = std::make_unique<ColumnCache>(std::move(types), cache_opts);
  }
  if (config_.statistics) {
    rt->stats = std::make_unique<TableStats>(rt->schema);
  }
  // Per-column access accounting is always on for raw tables (relaxed
  // atomic counters; negligible next to tokenizing). The promoted store —
  // the tier the accounting feeds — exists only when the subsystem is
  // enabled.
  rt->access =
      std::make_unique<ColumnAccessTracker>(rt->schema.num_columns());
  if (config_.promotion.enabled) {
    rt->promoted = std::make_unique<PromotedColumns>(rt->schema.num_columns());
  }
  rt->adapter = std::move(adapter);
  rt->scan_threads_override = options.scan_threads;

  // Warm restart: attempt the snapshot load *before* the table is visible
  // to queries, so either the first query sees the fully restored state or
  // (missing/stale/corrupt snapshot) the untouched cold state — never a
  // half-installed mix.
  rt->snapshot_dir = options.snapshot_dir.empty() ? config_.snapshot_dir
                                                  : options.snapshot_dir;
  const bool snapshot_capable = !rt->snapshot_dir.empty();
  if (snapshot_capable) {
    SnapshotLoadInfo info = LoadTableSnapshot(rt.get());
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    switch (info.outcome) {
      case SnapshotLoadOutcome::kLoaded:
        ++snapshot_counters_.loads;
        snapshot_counters_.bytes_loaded += info.bytes;
        break;
      case SnapshotLoadOutcome::kMissing:
        ++snapshot_counters_.load_misses;
        break;
      case SnapshotLoadOutcome::kStale:
        ++snapshot_counters_.load_stale;
        break;
      case SnapshotLoadOutcome::kCorrupt:
        ++snapshot_counters_.load_corrupt;
        break;
    }
  }
  NODB_RETURN_IF_ERROR(RegisterCommon(name, std::move(rt)));
  if (snapshot_capable) StartSnapshotWriter();
  if (config_.promotion.enabled) StartPromoter();
  return Status::OK();
}

Status Database::RegisterCsv(const std::string& name, const std::string& path,
                             Schema schema, CsvDialect dialect) {
  OpenOptions options;
  options.format = "csv";
  options.schema = std::move(schema);
  options.dialect = dialect;
  return Open(name, path, std::move(options));
}

Status Database::RegisterFits(const std::string& name,
                              const std::string& path) {
  OpenOptions options;
  options.format = "fits";
  return Open(name, path, std::move(options));
}

Result<LoadResult> Database::LoadCsv(const std::string& name,
                                     const std::string& path, Schema schema,
                                     CsvDialect dialect) {
  auto rt = std::make_unique<TableRuntime>();
  rt->name = name;
  rt->schema = std::move(schema);
  rt->storage = config_.loaded_storage;
  std::string dir = config_.data_dir.empty() ? DirName(path)
                                             : config_.data_dir;

  LoadResult load;
  if (config_.loaded_storage == TableStorage::kCompact) {
    std::string target = dir + "/" + name + ".cbt";
    NODB_ASSIGN_OR_RETURN(rt->compact,
                          CompactTable::Create(target, rt->schema));
    NODB_ASSIGN_OR_RETURN(
        load, LoadCsvToCompact(path, dialect, rt->compact.get(),
                               &SelectKernels(config_.scalar_kernels)));
    rt->row_count = static_cast<int64_t>(rt->compact->row_count());
  } else {
    std::string target = dir + "/" + name + ".heap";
    TableHeap::Options heap_opts;
    heap_opts.tuple_header_bytes = config_.tuple_header_bytes;
    heap_opts.extra_copy_on_scan = config_.mysql_copy_penalty;
    heap_opts.buffer_pool_pages = config_.buffer_pool_pages;
    NODB_ASSIGN_OR_RETURN(rt->heap,
                          TableHeap::Create(target, rt->schema, heap_opts));
    NODB_ASSIGN_OR_RETURN(
        load, LoadCsvToHeap(path, dialect, rt->heap.get(),
                            &SelectKernels(config_.scalar_kernels)));
    rt->row_count = static_cast<int64_t>(rt->heap->row_count());
  }

  // ANALYZE-equivalent: loaded engines come out of the load with statistics
  // in place (the paper's baselines have them; the raw engines must earn
  // them adaptively).
  if (config_.statistics) {
    Stopwatch analyze;
    rt->stats = std::make_unique<TableStats>(rt->schema);
    std::vector<bool> needed(rt->schema.num_columns(), true);
    auto analyze_all = [&](auto& scanner) -> Status {
      Row row;
      while (true) {
        NODB_ASSIGN_OR_RETURN(bool has, scanner.Next(&row));
        if (!has) return Status::OK();
        for (int c = 0; c < rt->schema.num_columns(); ++c) {
          rt->stats->AddValue(c, row[c]);
        }
      }
    };
    if (rt->heap != nullptr) {
      TableHeap::Scanner scanner(rt->heap.get(), needed);
      NODB_RETURN_IF_ERROR(analyze_all(scanner));
    } else {
      CompactTable::Scanner scanner(rt->compact.get(), needed);
      NODB_RETURN_IF_ERROR(analyze_all(scanner));
    }
    rt->stats->FinalizeAll();
    rt->stats_populated = true;
    load.seconds += analyze.ElapsedSeconds();
  }

  NODB_RETURN_IF_ERROR(RegisterCommon(name, std::move(rt)));
  return load;
}

Status Database::DropTable(const std::string& name) {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  if (tables_.erase(name) == 0) {
    return Status::NotFound("table '" + name + "' does not exist");
  }
  return Status::OK();
}

bool Database::HasTable(const std::string& name) const {
  return tables_.count(name) > 0;
}

std::vector<TableInfo> Database::ListTables() const {
  std::vector<TableInfo> infos;
  infos.reserve(tables_.size());
  for (const auto& [name, rt] : tables_) {
    TableInfo info;
    info.name = name;
    info.storage = rt->storage;
    if (rt->adapter != nullptr) {
      info.format = std::string(rt->adapter->format_name());
    } else {
      info.format = rt->storage == TableStorage::kCompact ? "compact" : "heap";
    }
    info.row_count = static_cast<double>(rt->row_count.load());
    if (rt->pmap != nullptr) info.pmap_bytes = rt->pmap->memory_bytes();
    if (rt->cache != nullptr) info.cache_bytes = rt->cache->memory_bytes();
    info.snapshot_state =
        rt->snapshot_state.load(std::memory_order_acquire);
    info.snapshot_bytes = rt->snapshot_bytes.load(std::memory_order_acquire);
    if (rt->adapter != nullptr && rt->adapter->file() != nullptr) {
      info.bytes_read = rt->adapter->file()->bytes_read();
      if (const InflateFile* gz = rt->adapter->file()->AsInflateFile()) {
        info.compressed = true;
        info.gz_checkpoints = gz->checkpoint_count();
        info.gz_bytes_inflated = gz->bytes_inflated();
      }
    }
    if (rt->promoted != nullptr) {
      info.promoted_columns = rt->promoted->promoted_attrs();
      info.promoted_bytes = rt->promoted->memory_bytes();
      PromotedColumns::Counters pc = rt->promoted->counters();
      info.promotions = pc.promotions;
      info.demotions = pc.demotions;
    }
    infos.push_back(std::move(info));
  }
  std::sort(infos.begin(), infos.end(),
            [](const TableInfo& a, const TableInfo& b) {
              return a.name < b.name;
            });
  return infos;
}

Result<QueryCursor> Database::Query(const std::string& sql,
                                    const QueryOptions& options) {
  NODB_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> stmt, ParseSelect(sql));
  Binder binder(this);
  NODB_ASSIGN_OR_RETURN(std::unique_ptr<BoundQuery> query,
                        binder.Bind(*stmt));
  const StatsProvider* stats = config_.statistics ? this : nullptr;
  NODB_ASSIGN_OR_RETURN(std::unique_ptr<PhysicalPlan> plan,
                        PlanQuery(query.get(), stats));
  // Canonicalize the per-query control handle once: the same instance is
  // threaded into every operator and into the cursor, so a cancel or an
  // expired deadline is seen at whichever batch boundary comes first.
  ExecControlPtr control = options.control;
  if (control == nullptr &&
      options.deadline != std::chrono::steady_clock::time_point{}) {
    control = std::make_shared<ExecControl>();
  }
  if (control != nullptr) control->TightenDeadline(options.deadline);
  const size_t batch_size =
      options.batch_size > 0 ? options.batch_size : config_.batch_size;
  ExecOptions exec_opts;
  exec_opts.insitu = MakeInSituOptions();
  exec_opts.batch_size = batch_size;
  exec_opts.scan_threads = config_.scan_threads;
  exec_opts.scan_morsel_bytes = config_.scan_morsel_bytes;
  exec_opts.scan_pool = ScanPool();
  exec_opts.deadline = options.deadline;
  exec_opts.control = control;
  NODB_ASSIGN_OR_RETURN(OperatorPtr pipeline,
                        BuildPipeline(*plan, this, exec_opts));
  return QueryCursor(std::move(stmt), std::move(query), std::move(plan),
                     std::move(pipeline), batch_size, std::move(control));
}

Result<QueryResult> Database::Execute(const std::string& sql,
                                      const QueryOptions& options) {
  Stopwatch timer;
  NODB_ASSIGN_OR_RETURN(QueryCursor cursor, Query(sql, options));
  QueryResult result;
  result.schema = cursor.schema();
  result.plan = cursor.plan_text();
  RowBatch batch = cursor.MakeBatch();
  while (true) {
    NODB_ASSIGN_OR_RETURN(size_t n, cursor.Next(&batch));
    if (n == 0) break;
    for (size_t i = 0; i < n; ++i) {
      result.rows.push_back(std::move(batch[i]));
    }
  }
  result.seconds = timer.ElapsedSeconds();
  return result;
}

Result<std::string> Database::Explain(const std::string& sql) {
  NODB_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> stmt, ParseSelect(sql));
  Binder binder(this);
  NODB_ASSIGN_OR_RETURN(std::unique_ptr<BoundQuery> query,
                        binder.Bind(*stmt));
  const StatsProvider* stats = config_.statistics ? this : nullptr;
  NODB_ASSIGN_OR_RETURN(std::unique_ptr<PhysicalPlan> plan,
                        PlanQuery(query.get(), stats));
  return plan->ToString();
}

ThreadPool* Database::ScanPool() {
  int need = config_.scan_threads;
  for (const auto& [name, rt] : tables_) {
    need = std::max(need, rt->scan_threads_override);
  }
  if (need <= 1) return nullptr;
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (scan_pool_ == nullptr) {
    scan_pool_ = std::make_unique<ThreadPool>(need);
  } else {
    scan_pool_->Grow(need);
  }
  return scan_pool_.get();
}

TableRuntime* Database::runtime(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

void Database::DropBufferCaches() {
  for (auto& [name, rt] : tables_) {
    if (rt->heap != nullptr) rt->heap->DropCaches();
  }
}

Result<uint64_t> Database::SnapshotTable(TableRuntime* rt) {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  Result<SnapshotWriteInfo> info = WriteTableSnapshot(rt);
  if (!info.ok()) {
    ++snapshot_counters_.save_failures;
    return info.status();
  }
  ++snapshot_counters_.saves;
  snapshot_counters_.bytes_saved += info->bytes;
  return info->bytes;
}

Result<uint64_t> Database::Snapshot(const std::string& name) {
  TableRuntime* rt = runtime(name);
  if (rt == nullptr) {
    return Status::NotFound("table '" + name + "' does not exist");
  }
  if (rt->storage != TableStorage::kRaw) {
    return Status::InvalidArgument(
        "table '" + name + "' is loaded; snapshots apply to raw tables only");
  }
  if (rt->snapshot_dir.empty()) {
    return Status::InvalidArgument("table '" + name +
                                   "' has no snapshot directory configured");
  }
  return SnapshotTable(rt);
}

Status Database::SnapshotAll() {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  Status first_error = Status::OK();
  for (auto& [name, rt] : tables_) {
    if (rt->storage != TableStorage::kRaw || rt->snapshot_dir.empty()) {
      continue;
    }
    // An unchanged signature means the file on disk already reflects this
    // warm state (saved earlier, or restored at Open and untouched since).
    if (WarmStateSignature(*rt) ==
        rt->snapshot_signature.load(std::memory_order_acquire)) {
      continue;
    }
    Result<uint64_t> saved = SnapshotTable(rt.get());
    if (!saved.ok() && first_error.ok()) first_error = saved.status();
  }
  return first_error;
}

SnapshotCounters Database::snapshot_counters() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_counters_;
}

Result<TablePromotionReport> Database::RunPromotionCycle(
    const std::string& name) {
  TableRuntime* rt = runtime(name);
  if (rt == nullptr) {
    return Status::NotFound("table '" + name + "' does not exist");
  }
  if (rt->storage != TableStorage::kRaw) {
    return Status::InvalidArgument(
        "table '" + name + "' is loaded; promotion applies to raw tables");
  }
  if (rt->promoted == nullptr) {
    return Status::InvalidArgument(
        "promotion is not enabled (EngineConfig::promotion.enabled)");
  }
  return RunTablePromotionCycle(rt, config_.promotion, &promoter_stop_);
}

std::vector<TablePromotionReport> Database::RunPromotionCycles() {
  std::vector<TablePromotionReport> reports;
  std::lock_guard<std::mutex> lock(catalog_mu_);
  for (auto& [name, rt] : tables_) {
    if (rt->storage != TableStorage::kRaw || rt->promoted == nullptr) {
      continue;
    }
    reports.push_back(
        RunTablePromotionCycle(rt.get(), config_.promotion, &promoter_stop_));
  }
  std::sort(reports.begin(), reports.end(),
            [](const TablePromotionReport& a, const TablePromotionReport& b) {
              return a.table < b.table;
            });
  return reports;
}

void Database::StartPromoter() {
  if (!config_.promotion.enabled || config_.promotion.interval_ms <= 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(promoter_mu_);
  if (promoter_thread_.joinable()) return;
  promoter_stop_.store(false);
  promoter_thread_ = std::thread([this] { PromoterLoop(); });
}

void Database::StopPromoter() {
  {
    std::lock_guard<std::mutex> lock(promoter_mu_);
    if (!promoter_thread_.joinable()) return;
    promoter_stop_.store(true);
  }
  promoter_cv_.notify_all();
  promoter_thread_.join();
}

void Database::PromoterLoop() {
  const auto interval =
      std::chrono::milliseconds(config_.promotion.interval_ms);
  std::unique_lock<std::mutex> lock(promoter_mu_);
  while (!promoter_stop_.load()) {
    promoter_cv_.wait_for(lock, interval,
                          [this] { return promoter_stop_.load(); });
    if (promoter_stop_.load()) break;
    lock.unlock();
    // Best-effort: per-table errors ride in the reports and the next tick
    // retries; promoter_stop_ aborts a long load co-operatively.
    RunPromotionCycles();
    lock.lock();
  }
}

void Database::StartSnapshotWriter() {
  if (config_.snapshot_interval_ms <= 0) return;
  std::lock_guard<std::mutex> lock(snapshot_thread_mu_);
  if (snapshot_thread_.joinable()) return;
  snapshot_stop_ = false;
  snapshot_thread_ = std::thread([this] { SnapshotWriterLoop(); });
}

void Database::StopSnapshotWriter() {
  {
    std::lock_guard<std::mutex> lock(snapshot_thread_mu_);
    if (!snapshot_thread_.joinable()) return;
    snapshot_stop_ = true;
  }
  snapshot_cv_.notify_all();
  snapshot_thread_.join();
}

void Database::SnapshotWriterLoop() {
  const auto interval = std::chrono::milliseconds(config_.snapshot_interval_ms);
  std::unique_lock<std::mutex> lock(snapshot_thread_mu_);
  while (!snapshot_stop_) {
    snapshot_cv_.wait_for(lock, interval,
                          [this] { return snapshot_stop_; });
    if (snapshot_stop_) break;
    lock.unlock();
    // Best-effort: a failed save is counted and retried next tick. The
    // signature gate keeps idle ticks free of disk writes.
    Status ignored = SnapshotAll();
    (void)ignored;
    lock.lock();
  }
}

Result<const Schema*> Database::GetTableSchema(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + name + "' does not exist");
  }
  return &it->second->schema;
}

const TableStats* Database::GetTableStats(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return nullptr;
  const TableRuntime& rt = *it->second;
  if (rt.stats == nullptr || !rt.stats_populated) return nullptr;
  return rt.stats.get();
}

double Database::GetRowCount(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return -1;
  return static_cast<double>(it->second->row_count.load());
}

bool Database::IsColumnPromoted(const std::string& name, int attr) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return false;
  const TableRuntime& rt = *it->second;
  return rt.promoted != nullptr && attr >= 0 &&
         attr < rt.promoted->num_attrs() && rt.promoted->IsPromoted(attr);
}

Result<TableRuntime*> Database::GetTableRuntime(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + name + "' does not exist");
  }
  return it->second.get();
}

}  // namespace nodb
