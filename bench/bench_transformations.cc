// E5 — Table 4: syntactic transformations over TPC-H lineitem, on the engine.
//
// Every arm reads the colpack ("Parquet-like") file from disk, registers it
// and runs CleanDB::Transform, whose queries execute on the engine like any
// CleanM query:
//
//   plain     — the identity transform: every column, unchanged
//   split     — receiptdate into year / month / day
//   fill      — missing quantity values with the column average
//   two steps — fill, register the result, split it: two passes
//   one step  — fill and split in one Transform: one pass
//
// Each arm is timed best of N after one untimed warm-up round, the arms
// interleaved round by round, and reported relative to plain.
//
// Paper: split 1.15×, fill 1.15×, two-step 2.3×, one-step 1.19× — the
// one-pass plan costs about what one operation does.
//
//   bench_transformations [--smoke] [--check] [--out <path>]
//
// Gates: the two-step arm partitions lineitem twice and every other arm,
// one step included, once (rows_scanned 2n and n; hard, and judged on every
// run, the CTest smoke run included, since the counter is deterministic);
// one step takes at most 0.6× the time of two steps (advisory: wall clock).
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "cleaning/cleandb.h"
#include "datagen/generators.h"
#include "harness.h"
#include "storage/colpack.h"

namespace cleanm {
namespace {

struct Arm {
  const char* name;
  double paper;  ///< the paper's slowdown over the plain query (Table 4)
  int scans;     ///< times the arm partitions lineitem
  std::function<Dataset(CleanDB&)> transform;
};

Dataset MustTransform(CleanDB& db, const CleanDB::TransformSpec& spec) {
  return db.Transform("lineitem", spec).ValueOrDie();
}

}  // namespace
}  // namespace cleanm

int main(int argc, char** argv) {
  using namespace cleanm;
  namespace fs = std::filesystem;
  bench::Flags flags = bench::ParseFlags(argc, argv, {"--smoke", "--check", "--out"});
  flags.check = true;  // the hard gates read a deterministic counter
  bench::Report report(flags);
  const bool smoke = report.flags().smoke;
  const int repeats = smoke ? 2 : 5;

  datagen::LineitemOptions lopts;
  lopts.rows = smoke ? 2000 : 420000 / 2;  // SF70-equivalent at 1/2000 scale
  lopts.missing_fraction = 0.05;
  lopts.noise_fraction = 0;
  const uint64_t n = lopts.rows;
  // As in the paper, every arm includes reading the input from disk. The
  // file name is per process: concurrent ctest runs must not share it.
  const std::string path =
      (fs::temp_directory_path() /
       ("cleanm_sf70_" + std::to_string(::getpid()) + ".cpk")).string();
  CLEANM_CHECK(WriteColpack(datagen::MakeLineitem(lopts), path).ok());

  CleanDB::TransformSpec split, fill, both;
  split.split_date_column = "receiptdate";
  fill.fill_missing_column = "quantity";
  both.split_date_column = "receiptdate";
  both.fill_missing_column = "quantity";
  const std::vector<Arm> arms = {
      {"plain", 1.0, 1, [](CleanDB& db) { return MustTransform(db, {}); }},
      {"split", 1.15, 1, [&](CleanDB& db) { return MustTransform(db, split); }},
      {"fill", 1.15, 1, [&](CleanDB& db) { return MustTransform(db, fill); }},
      {"two_steps", 2.30, 2,
       [&](CleanDB& db) {
         db.RegisterTable("lineitem", MustTransform(db, fill));
         return MustTransform(db, split);
       }},
      {"one_step", 1.19, 1, [&](CleanDB& db) { return MustTransform(db, both); }},
  };

  CleanDB db(bench::SessionOptions(/*nonet=*/true));
  auto run = [&](const Arm& arm) {
    db.RegisterTable("lineitem", ReadColpack(path).ValueOrDie());
    CLEANM_CHECK(arm.transform(db).num_rows() == n);
  };
  auto rows_scanned = [&db] { return db.cluster().session_metrics().rows_scanned.load(); };

  // Warm-up round (page cache, allocator, worker pool), which also counts
  // the rows each arm partitions.
  std::vector<uint64_t> scanned;
  for (const Arm& arm : arms) {
    const uint64_t before = rows_scanned();
    run(arm);
    scanned.push_back(rows_scanned() - before);
  }
  std::vector<bench::BestTime> best(arms.size());
  for (int r = 0; r < repeats; r++) {
    for (size_t a = 0; a < arms.size(); a++) best[a].Time([&] { run(arms[a]); });
  }
  fs::remove(path);

  bench::Section& s = report.Add(
      "transformations", "E5 — Table 4: transformation slowdowns over the plain query");
  s.Count("rows", n).Count("nodes", db.options().num_nodes).Count("repeats", repeats);
  const double plain = best[0].seconds();
  for (size_t a = 0; a < arms.size(); a++) {
    const std::string name = arms[a].name;
    s.Seconds(name + "_s", best[a].seconds());
    s.Count(name + "_rows_scanned", scanned[a])
        .Equals(static_cast<double>(arms[a].scans * n));
    if (a == 0) continue;
    s.Ratio(name + "_slowdown", bench::Quotient(best[a].seconds(), plain));
    s.Ratio(name + "_paper", arms[a].paper).PrintOnly();
  }
  s.Ratio("one_vs_two_steps", bench::Quotient(best[4].seconds(), best[3].seconds()))
      .AtMost(0.6, bench::Gate::kAdvisory);
  return report.Finish();
}
