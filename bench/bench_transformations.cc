// E5 — Table 4: syntactic transformations over TPC-H lineitem.
//
// Measures the slowdown of (a) splitting the receipt date, (b) filling
// missing quantity values with the column average, (c) both as two separate
// dataset traversals, and (d) both in one pass, each relative to a plain
// full-projection query over the dataset.
//
// Paper: split 1.15×, fill 1.15×, two-step 2.3×, one-step 1.19× — the
// optimizer's one-pass plan costs about the same as a single operation.
#include <cstdio>
#include <unistd.h>
#include <filesystem>
#include <string>

#include "cleaning/cleandb.h"
#include "common/timer.h"
#include "datagen/generators.h"
#include "harness.h"
#include "storage/colpack.h"

int main(int argc, char** argv) {
  using namespace cleanm;
  const bool smoke = bench::ParseFlags(argc, argv, {"--smoke"}).smoke;
  std::printf("=== E5 — Table 4: transformation slowdowns (lineitem 'SF70'-scaled) ===\n");
  std::printf("paper: split 1.15x | fill 1.15x | both two-step 2.30x | both one-step 1.19x\n\n");

  CleanDB db(bench::SessionOptions(/*nonet=*/true));
  datagen::LineitemOptions lopts;
  lopts.rows = smoke ? 2000 : 420000 / 2;  // SF70-equivalent at 1/2000 scale
  lopts.missing_fraction = 0.05;
  lopts.noise_fraction = 0;
  auto dataset = datagen::MakeLineitem(lopts);
  const size_t n_rows = dataset.num_rows();

  // As in the paper, every measurement includes reading the (Parquet-like)
  // input from disk — the plain query is read + full projection.
  namespace fs = std::filesystem;
  // Per-process name: concurrent ctest runs must not share bench files.
  const std::string path =
      (fs::temp_directory_path() /
       ("cleanm_sf70_" + std::to_string(::getpid()) + ".cpk")).string();
  CLEANM_CHECK(WriteColpack(dataset, path).ok());

  // Warm-up read (page cache + allocator), then the plain-query baseline.
  { auto warm = ReadColpack(path).ValueOrDie(); }
  Timer plain_timer;
  {
    auto table = ReadColpack(path).ValueOrDie();
    Dataset projected(table.schema());
    for (const auto& row : table.rows()) projected.Append(row);
  }
  const double plain = plain_timer.ElapsedSeconds();

  auto timed = [&](const CleanDB::TransformSpec& spec, bool one_pass) {
    Timer t;
    db.RegisterTable("lineitem", ReadColpack(path).ValueOrDie());
    auto out = db.Transform("lineitem", spec, one_pass).ValueOrDie();
    const double secs = t.ElapsedSeconds();
    CLEANM_CHECK(out.num_rows() == n_rows);
    return secs;
  };

  CleanDB::TransformSpec split_only;
  split_only.split_date_column = "receiptdate";
  CleanDB::TransformSpec fill_only;
  fill_only.fill_missing_column = "quantity";
  CleanDB::TransformSpec both;
  both.split_date_column = "receiptdate";
  both.fill_missing_column = "quantity";

  const double split = timed(split_only, false);
  const double fill = timed(fill_only, false);
  const double two_step = timed(both, /*one_pass=*/false);
  const double one_step = timed(both, /*one_pass=*/true);

  std::printf("%-36s %10s %10s %8s\n", "operation", "time(s)", "plain(s)", "slowdown");
  std::printf("%-36s %10.3f %10.3f %7.2fx  (paper 1.15x)\n", "Split date", split, plain,
              split / plain);
  std::printf("%-36s %10.3f %10.3f %7.2fx  (paper 1.15x)\n", "Fill values", fill, plain,
              fill / plain);
  std::printf("%-36s %10.3f %10.3f %7.2fx  (paper 2.30x)\n",
              "Split date & Fill values (two steps)", two_step, plain, two_step / plain);
  std::printf("%-36s %10.3f %10.3f %7.2fx  (paper 1.19x)\n",
              "Split date & Fill values (one step)", one_step, plain, one_step / plain);
  std::printf("\n[measured] the one-pass plan should cost roughly one operation; the "
              "two-step plan roughly the sum of both.\n");
  fs::remove(path);
  return 0;
}
