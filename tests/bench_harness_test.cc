// The bench harness: flag parsing, the JSON merge behind --out, and the
// --check verdict generated from each section's gates.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "support/fixtures.h"

namespace cleanm::bench {
namespace {

Result<Flags> Parse(std::vector<const char*> args) {
  args.insert(args.begin(), "bench_x");
  return TryParseFlags(static_cast<int>(args.size()), args.data(),
                       {"--smoke", "--check", "--out"});
}

TEST(BenchHarnessTest, ParsesTheAcceptedFlags) {
  auto flags = Parse({"--check", "--out", "x.json", "--smoke"});
  ASSERT_TRUE(flags.ok()) << flags.status().ToString();
  EXPECT_TRUE(flags.value().check);
  EXPECT_TRUE(flags.value().smoke);
  EXPECT_FALSE(flags.value().nonet);
  EXPECT_EQ(flags.value().out, "x.json");

  auto none = Parse({});
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none.value().check);
  EXPECT_TRUE(none.value().out.empty());
}

TEST(BenchHarnessTest, RejectsAnUnknownFlagAndAMissingValue) {
  // A typo, a flag this driver does not take, a bare word, and --out
  // without a value (last, or followed by another flag).
  const std::vector<std::vector<const char*>> cases = {
      {"--smoek"}, {"--nonet"}, {"smoke"}, {"--out"}, {"--out", "--check"}};
  for (const auto& args : cases) {
    auto flags = Parse(args);
    EXPECT_FALSE(flags.ok()) << args.back();
    EXPECT_EQ(flags.status().code(), StatusCode::kInvalidArgument) << args.back();
  }
}

class BenchJsonMergeTest : public testsupport::TempDirTest {
 protected:
  std::string Read(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }
};

TEST_F(BenchJsonMergeTest, CreatesReplacesAndKeepsSections) {
  const std::string path = Path("bench.json");
  ASSERT_TRUE(MergeJson(path, {{"bench", "\"x\""}, {"a", "{\"n\": 1}"}}).ok());
  EXPECT_EQ(Read(path), "{\n  \"bench\": \"x\",\n  \"a\": {\"n\": 1}\n}\n");

  // A multi-line array, a string holding a brace and a comma, and nesting
  // survive a merge that replaces "a" in place and appends "b".
  {
    std::ofstream out(path);
    out << "{\n  \"bench\": \"x, }\",\n  \"list\": [\n    {\"k\": [1, 2]},\n"
           "    {\"k\": []}\n  ],\n  \"a\": {\"n\": 1}\n}\n";
  }
  ASSERT_TRUE(MergeJson(path, {{"a", "{\"n\": 2}"}, {"b", "{\"m\": 0.500}"}}).ok());
  EXPECT_EQ(Read(path),
            "{\n  \"bench\": \"x, }\",\n  \"list\": [\n    {\"k\": [1, 2]},\n"
            "    {\"k\": []}\n  ],\n  \"a\": {\"n\": 2},\n  \"b\": {\"m\": 0.500}\n}\n");

  // Not an object: an error, and the file is left alone.
  {
    std::ofstream out(path);
    out << "[1, 2]\n";
  }
  EXPECT_FALSE(MergeJson(path, {{"a", "{}"}}).ok());
  EXPECT_EQ(Read(path), "[1, 2]\n");
}

TEST_F(BenchJsonMergeTest, ReportWritesItsSectionsOnlyUnderOut) {
  const std::string path = Path("report.json");
  {
    Report report(Flags{});
    report.Add("s", "untitled").Count("n", 3);
    EXPECT_EQ(report.Finish(), 0);
  }
  EXPECT_FALSE(std::ifstream(path).good());

  Flags flags;
  flags.out = path;
  Report report(flags);
  report.Text("bench", "demo");
  report.Add("s", "section s")
      .Count("n", 3)
      .Seconds("t", 0.25)
      .Ratio("r", 2.0 / 3)
      .Flag("ok", true)
      .Bool("smoke", false)
      .Count("local", 7)
      .PrintOnly();
  Section& rows = report.Add("rows", "array section");
  rows.Row().Count("batch", 1).Number("rate", 10.4, 0);
  rows.Row().Count("batch", 8).Number("rate", 99.5, 1);
  EXPECT_EQ(report.Finish(), 0);
  EXPECT_EQ(Read(path),
            "{\n  \"bench\": \"demo\",\n"
            "  \"s\": {\"n\": 3, \"t\": 0.250000, \"r\": 0.667, \"ok\": 1, \"smoke\": false},\n"
            "  \"rows\": [{\"batch\": 1, \"rate\": 10}, {\"batch\": 8, \"rate\": 99.5}]\n}\n");
}

TEST(BenchHarnessTest, EveryFailedGateIsReportedAndOnlyHardGatesFail) {
  Flags flags;
  flags.check = true;
  {
    Report report(flags);
    Section& s = report.Add("s", "gated");
    s.Ratio("speedup", 1.5).AtLeast(2.0);
    s.Count("misses", 3).AtMost(0);
    s.Count("pools", 8).AtMost(8);
    s.Ratio("noisy", 1.2).AtMost(1.1, Gate::kAdvisory);
    s.Require("results identical", false);
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    EXPECT_EQ(report.Finish(), 1);
    const std::string out = testing::internal::GetCapturedStdout();
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("FAILED: s.speedup = 1.500 (>= 2)"), std::string::npos) << err;
    EXPECT_NE(err.find("FAILED: s.misses = 3 (<= 0)"), std::string::npos) << err;
    EXPECT_NE(err.find("FAILED: s: results identical"), std::string::npos) << err;
    EXPECT_NE(err.find("3 of 4 hard gates"), std::string::npos) << err;
    EXPECT_NE(out.find("ok: s.pools = 8 (<= 8)"), std::string::npos) << out;
    EXPECT_NE(out.find("WARNING (advisory): s.noisy = 1.200 (<= 1.1)"), std::string::npos)
        << out;
  }

  // An advisory gate alone only warns; without --check nothing is judged.
  for (const bool check : {true, false}) {
    flags.check = check;
    Report report(flags);
    report.Add("s", "advisory").Ratio("noisy", 1.2).AtMost(1.1, Gate::kAdvisory);
    report.Require("a hard gate outside any section", check);
    testing::internal::CaptureStdout();
    EXPECT_EQ(report.Finish(), 0);
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_EQ(out.find("WARNING") != std::string::npos, check) << out;
  }
}

}  // namespace
}  // namespace cleanm::bench
