// Workload `tpch`: TPC-H Q1, Q3, Q4, Q6, Q10, Q12, Q14 and Q19 in situ over
// the generated CSVs. A session is one cold pass, an explicit promotion
// cycle, then warm passes. Hash join, aggregation, sort and expression
// evaluation dominate the warm passes, which the promoted tier serves; the
// cold pass is the only place morsel-parallel scans run.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "engine/engines.h"
#include "workload/tpch_gen.h"
#include "workload/tpch_queries.h"

namespace perfbench {

namespace {

// SF 0.01 (60k lineitem rows): one session of 40 queries takes a few
// seconds, so a run measures several sessions and 200+ query latencies.
constexpr double kScaleFactor = 0.01;
constexpr int kWarmPasses = 4;

}  // namespace

int RunTpch(Context* ctx) {
  nodb::TpchSpec spec;
  spec.scale_factor = kScaleFactor;
  spec.seed = ctx->args.seed;
  const std::string& dir = ctx->args.data_dir;
  if (!nodb::GenerateTpch(dir, spec).ok()) {
    fprintf(stderr, "perfbench: cannot generate TPC-H data in %s\n",
            dir.c_str());
    return 2;
  }
  auto reference = nodb::MakeEngine(nodb::SystemUnderTest::kDbmsX);
  for (const std::string& table : nodb::TpchTableNames()) {
    if (!reference->LoadCsv(table, dir + "/" + table + ".csv",
                            nodb::TpchSchema(table))
             .ok()) {
      fprintf(stderr, "perfbench: reference load of %s failed\n",
              table.c_str());
      return 2;
    }
  }
  std::vector<QuerySpec> pass;
  for (int q : nodb::TpchQueryNumbers()) {
    const std::string sql = nodb::TpchQuery(q);
    pass.push_back({std::string("Q").append(std::to_string(q)), sql,
                    ReferenceAnswer(reference.get(), sql)});
  }
  reference.reset();

  SessionPlan plan;
  for (int p = 0; p <= kWarmPasses; ++p) {
    for (QuerySpec q : pass) {
      const std::string pass_name =
          p == 0 ? "cold" : std::string("warm").append(std::to_string(p));
      q.label = pass_name + "." + q.label;
      plan.queries.push_back(std::move(q));
    }
  }
  plan.promote_after = pass.size();
  plan.config =
      nodb::EngineConfig::ForSystem(nodb::SystemUnderTest::kPostgresRawPMC);
  plan.config.scan_threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()) / 2);
  plan.config.promotion.enabled = true;
  plan.open = [dir](nodb::Database* db) {
    for (const std::string& table : nodb::TpchTableNames()) {
      nodb::OpenOptions options;
      options.schema = nodb::TpchSchema(table);
      NODB_RETURN_IF_ERROR(db->Open(table, dir + "/" + table + ".csv", options));
    }
    return nodb::Status::OK();
  };
  ProbeFiles probes;
  probes.read_path = dir + "/lineitem.csv";
  probes.csv_path = probes.read_path;
  probes.columns = nodb::TpchSchema("lineitem").num_columns();
  RunDirectWorkload(ctx, plan, probes, /*serial=*/false);
  return 0;
}

}  // namespace perfbench
