// Property tests across module boundaries:
//  * random flat datasets survive CSV / JSON-lines / colpack round-trips
//  * random nested datasets survive JSON-lines / colpack round-trips
//  * the FD cleaning pipeline returns identical violations for every
//    (aggregation strategy × cluster size) combination — the paper's claim
//    that the monoid translation is *inherently* parallelizable: the answer
//    cannot depend on how the merge tree is shaped.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "cleaning/cleandb.h"
#include "common/random.h"
#include "datagen/generators.h"
#include "storage/colpack.h"
#include "storage/csv.h"
#include "storage/json.h"
#include "support/fixtures.h"

namespace cleanm {
namespace {

using testsupport::DatasetsEqual;
using testsupport::RandomFlatDataset;

class RoundTripPropertyTest : public testsupport::TempDirTest,
                              public ::testing::WithParamInterface<uint64_t> {};

TEST_P(RoundTripPropertyTest, FlatDatasetSurvivesAllFormats) {
  Rng rng(GetParam());
  const Dataset original = RandomFlatDataset(&rng, 40);

  const std::string colpack_path = (dir_ / "t.cpk").string();
  ASSERT_TRUE(WriteColpack(original, colpack_path).ok());
  auto colpack_back = ReadColpack(colpack_path).ValueOrDie();
  EXPECT_TRUE(DatasetsEqual(original, colpack_back)) << "colpack seed " << GetParam();

  const std::string json_path = (dir_ / "t.jsonl").string();
  ASSERT_TRUE(WriteJsonLines(original, json_path).ok());
  auto json_back = ReadJsonLines(json_path).ValueOrDie();
  // JSON-lines drops all-null trailing columns only if a key never occurs;
  // with 40 rows at 10% null rate every column occurs, so shapes match.
  EXPECT_TRUE(DatasetsEqual(original, json_back)) << "json seed " << GetParam();

  // CSV cannot distinguish an empty string from null and renders doubles in
  // decimal; compare loosely: same row count, numerics equal, strings equal
  // up to the null/"" ambiguity.
  const std::string csv_path = (dir_ / "t.csv").string();
  ASSERT_TRUE(WriteCsv(original, csv_path).ok());
  auto csv_back = ReadCsv(csv_path).ValueOrDie();
  ASSERT_EQ(csv_back.num_rows(), original.num_rows());
  for (size_t r = 0; r < original.num_rows(); r++) {
    const Value& vi = original.row(r)[0];
    const Value& ci = csv_back.row(r)[0];
    if (!vi.is_null()) {
      EXPECT_EQ(vi.AsInt(), ci.AsInt()) << "row " << r;
    }
    const Value& vs = original.row(r)[2];
    const Value& cs = csv_back.row(r)[2];
    if (!vs.is_null() && !vs.AsString().empty()) {
      EXPECT_EQ(vs.AsString(), cs.AsString()) << "row " << r;
    }
  }
}

TEST_P(RoundTripPropertyTest, NestedDatasetSurvivesJsonAndColpack) {
  Rng rng(GetParam());
  Dataset original(Schema{{"title", ValueType::kString}, {"tags", ValueType::kList}});
  for (int r = 0; r < 25; r++) {
    ValueList tags;
    const size_t n = rng.Uniform(4);
    for (size_t t = 0; t < n; t++) {
      tags.push_back(Value("tag" + std::to_string(rng.Uniform(10))));
    }
    original.Append({Value("t" + std::to_string(r)), Value(std::move(tags))});
  }
  const std::string colpack_path = (dir_ / "n.cpk").string();
  ASSERT_TRUE(WriteColpack(original, colpack_path).ok());
  EXPECT_TRUE(DatasetsEqual(original, ReadColpack(colpack_path).ValueOrDie()));

  const std::string json_path = (dir_ / "n.jsonl").string();
  ASSERT_TRUE(WriteJsonLines(original, json_path).ok());
  EXPECT_TRUE(DatasetsEqual(original, ReadJsonLines(json_path).ValueOrDie()));
}

TEST_P(RoundTripPropertyTest, EscaperHeavyStringsSurviveJsonAndColpack) {
  // Pure-string columns drawn from the escaper-stress alphabet, larger than
  // the flat property above so dictionary coding and the quote handling see
  // repeats. JSON and colpack round-trip exactly (CSV's null/"" ambiguity
  // is covered loosely by FlatDatasetSurvivesAllFormats).
  Rng rng(GetParam() * 7919);  // distinct fixed stream per seed
  Dataset original(Schema{{"a", ValueType::kString}, {"b", ValueType::kString}});
  const char* alphabet = "ab,\"\n\t\\{}<>&:[]";
  for (int r = 0; r < 120; r++) {
    Row row;
    for (int c = 0; c < 2; c++) {
      std::string s;
      const size_t len = rng.Uniform(16);
      for (size_t i = 0; i < len; i++) s += alphabet[rng.Uniform(15)];
      row.push_back(Value(std::move(s)));
    }
    original.Append(std::move(row));
  }
  const std::string json_path = (dir_ / "esc.jsonl").string();
  ASSERT_TRUE(WriteJsonLines(original, json_path).ok());
  EXPECT_TRUE(DatasetsEqual(original, ReadJsonLines(json_path).ValueOrDie()))
      << "json seed " << GetParam();
  const std::string cpk_path = (dir_ / "esc.cpk").string();
  ASSERT_TRUE(WriteColpack(original, cpk_path).ok());
  EXPECT_TRUE(DatasetsEqual(original, ReadColpack(cpk_path).ValueOrDie()))
      << "colpack seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

/// The distributed answer must be independent of strategy and node count.
struct ExecConfig {
  engine::AggregateStrategy strategy;
  size_t nodes;
};

class ParallelInvarianceTest : public ::testing::TestWithParam<ExecConfig> {};

TEST_P(ParallelInvarianceTest, FdViolationsIndependentOfExecutionShape) {
  datagen::CustomerOptions copts;
  copts.base_rows = 600;
  copts.fd_violation_fraction = 0.08;
  copts.duplicate_fraction = 0;
  auto customers = datagen::MakeCustomer(copts);

  FdClause fd;
  fd.lhs = {ParseCleanMExpr("c.address").ValueOrDie()};
  fd.rhs = {ParseCleanMExpr("prefix(c.phone)").ValueOrDie()};

  // Violations compare as sorted canonical strings: element order inside
  // aggregated collections follows the fold order, which depends on the
  // node count and strategy.
  auto violations = [&](const CleanDBOptions& opts) {
    CleanDB db(opts);
    db.RegisterTable("customer", customers);
    const OpResult result = db.CheckFd("customer", "c", fd).ValueOrDie();
    std::vector<std::string> out;
    for (const auto& v : result.violations) out.push_back(CanonicalString(v));
    std::sort(out.begin(), out.end());
    return out;
  };

  // Reference: single node, local combine.
  CleanDBOptions ref_opts;
  ref_opts.num_nodes = 1;
  ref_opts.shuffle_ns_per_byte = 0;
  const std::vector<std::string> expected = violations(ref_opts);
  ASSERT_GT(expected.size(), 0u);

  CleanDBOptions opts;
  opts.num_nodes = GetParam().nodes;
  opts.shuffle_ns_per_byte = 0;
  opts.physical.aggregate_strategy = GetParam().strategy;
  EXPECT_EQ(violations(opts), expected);
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesTimesNodes, ParallelInvarianceTest,
    ::testing::Values(ExecConfig{engine::AggregateStrategy::kLocalCombine, 2},
                      ExecConfig{engine::AggregateStrategy::kLocalCombine, 7},
                      ExecConfig{engine::AggregateStrategy::kLocalCombine, 16},
                      ExecConfig{engine::AggregateStrategy::kSortShuffle, 2},
                      ExecConfig{engine::AggregateStrategy::kSortShuffle, 7},
                      ExecConfig{engine::AggregateStrategy::kSortShuffle, 16},
                      ExecConfig{engine::AggregateStrategy::kHashShuffle, 2},
                      ExecConfig{engine::AggregateStrategy::kHashShuffle, 7},
                      ExecConfig{engine::AggregateStrategy::kHashShuffle, 16}));

}  // namespace
}  // namespace cleanm
