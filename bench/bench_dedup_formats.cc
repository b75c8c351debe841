// E8 — Figure 7: duplicate elimination over DBLP in four representations:
// nested JSON, nested colpack ("Parquet"), flattened CSV, flattened colpack.
//
// Two publications are duplicates when they share journal and title and
// their records are ≥ 80% similar; both systems block on (journal, title).
//
// Paper shape: nested representations beat flattened ones (flattening
// multiplies the rows); Spark SQL is competitive at the small size but
// scales worse than CleanDB at the large one (skew sensitivity).
#include <cstdio>
#include <unistd.h>
#include <filesystem>
#include <string>
#include <vector>

#include "baselines/baselines.h"
#include "datagen/generators.h"
#include "harness.h"
#include "storage/colpack.h"
#include "storage/csv.h"
#include "storage/json.h"

namespace cleanm {
namespace {

DedupClause DblpDedup() {
  DedupClause dedup;
  dedup.op = FilteringAlgo::kExactKey;  // block on (journal, title)
  dedup.metric = SimilarityMetric::kLevenshtein;
  dedup.theta = 0.8;
  dedup.attributes = {ParseCleanMExpr("p.journal").ValueOrDie(),
                      ParseCleanMExpr("p.title").ValueOrDie()};
  return dedup;
}

template <typename System>
double TimeDedup(System& system, const Dataset& data) {
  system.RegisterTable("dblp", data);
  auto r = system.Deduplicate("dblp", "p", DblpDedup());
  return r.ok() ? r.value().seconds : -1;
}

}  // namespace
}  // namespace cleanm

int main(int argc, char** argv) {
  using namespace cleanm;
  namespace fs = std::filesystem;
  const bool smoke = bench::ParseFlags(argc, argv, {"--smoke"}).smoke;
  const CleanDBOptions options = bench::SessionOptions(/*nonet=*/false);
  const std::vector<size_t> row_sweep =
      smoke ? std::vector<size_t>{300} : std::vector<size_t>{4000, 8000};
  // Per-process dir: concurrent ctest runs must not share bench files.
  const auto tmp = fs::temp_directory_path() /
                   ("cleanm_fmt_bench_" + std::to_string(::getpid()));
  fs::create_directories(tmp);

  std::printf("=== E8 — Figure 7: dedup over DBLP representations ===\n");
  std::printf("paper: nested (JSON/Parquet) faster than flat (CSV/Parquet_flat); "
              "SparkSQL competitive at 5GB-scale, slower at 10GB-scale\n\n");

  for (size_t rows : row_sweep) {
    datagen::DblpOptions dopts;
    dopts.rows = rows;
    dopts.duplicate_fraction = 0.10;
    dopts.skew = 1.1;  // hot titles: the skew that hurts sort-based shuffles
    auto nested = datagen::MakeDblp(dopts);
    auto flat = FlattenListColumn(nested, "author").ValueOrDie();

    const std::string json_path = (tmp / "dblp.jsonl").string();
    const std::string cpk_path = (tmp / "dblp.cpk").string();
    const std::string csv_path = (tmp / "dblp_flat.csv").string();
    const std::string cpkf_path = (tmp / "dblp_flat.cpk").string();
    CLEANM_CHECK(WriteJsonLines(nested, json_path).ok());
    CLEANM_CHECK(WriteColpack(nested, cpk_path).ok());
    CLEANM_CHECK(WriteCsv(flat, csv_path).ok());
    CLEANM_CHECK(WriteColpack(flat, cpkf_path).ok());

    struct FormatCase {
      const char* label;
      std::string path;
      int format;  // 0=json, 1=colpack, 2=csv
    };
    const FormatCase cases[] = {{"JSON", json_path, 0},
                                {"Parquet(colpack)", cpk_path, 1},
                                {"CSV_flat", csv_path, 2},
                                {"Parquet_flat", cpkf_path, 1}};
    std::printf("--- DBLP %zu publications (%zu flat rows) ---\n", nested.num_rows(),
                flat.num_rows());
    std::printf("%-18s %12s %12s\n", "format", "CleanDB(s)", "SparkSQL(s)");
    for (const auto& c : cases) {
      auto load = [&]() {
        switch (c.format) {
          case 0: return ReadJsonLines(c.path).ValueOrDie();
          case 1: return ReadColpack(c.path).ValueOrDie();
          default: return ReadCsv(c.path).ValueOrDie();
        }
      };
      {  // Warm-up (page cache + allocator) so system order is fair.
        CleanDB warm(options);
        auto data = load();
        CLEANM_CHECK(TimeDedup(warm, data) >= 0);
      }
      Timer t_cdb;
      CleanDB cleandb(options);
      {
        auto data = load();
        CLEANM_CHECK(TimeDedup(cleandb, data) >= 0);
      }
      const double cdb = t_cdb.ElapsedSeconds();
      Timer t_spark;
      SparkSqlSim spark(options);
      {
        auto data = load();
        CLEANM_CHECK(TimeDedup(spark, data) >= 0);
      }
      const double sp = t_spark.ElapsedSeconds();
      std::printf("%-18s %12.3f %12.3f\n", c.label, cdb, sp);
    }
    std::printf("\n");
  }
  std::printf("[measured] verify nested < flat per system, and the CleanDB/SparkSQL "
              "gap widening at the larger size.\n");
  fs::remove_all(tmp);
  return 0;
}
