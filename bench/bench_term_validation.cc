// E1/E2/E3 — Table 3, Figure 3, Figure 4: term validation over a DBLP-like
// author corpus, sweeping the filtering algorithm (token filtering q ∈
// {2,3,4}; single-pass k-means k ∈ {5,10,20}), reporting per-phase runtime
// (grouping vs similarity) and accuracy (precision / recall / F-score),
// then accuracy as noise grows 20% → 40% (threshold lowered with noise, as
// in the paper).
//
// Every column comes from the system: each configuration sets
// CleanDBOptions::filtering.q / .k and runs the CLUSTER BY query over every
// flattened author occurrence through Prepare → Execute with profiling on.
// Grouping time is the Nest operators' self time, similarity time the
// Select's; precision, recall and F come from the reported violations, one
// per (term, suggestion) pair.
//
//   bench_term_validation [--smoke] [--check]
//
// --smoke runs a tiny corpus. Every run exits non-zero when a reported
// term is a dictionary entry, or when the tf q=2 run reports no pair;
// --check skips E3.
#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "cleaning/cleandb.h"
#include "cleaning/prepared_query.h"
#include "cleaning/query_profile.h"
#include "datagen/generators.h"
#include "harness.h"

namespace cleanm {
namespace {

struct Config {
  const char* label;
  const char* op;  ///< the CLUSTER BY <op> spelling
  size_t q_or_k;
};

/// The author occurrences, the dictionary and the ground truth.
struct Corpus {
  Dataset authors;     ///< every flattened author occurrence
  Dataset dictionary;  ///< the clean author pool, column "author"
  std::set<std::string> entries;
  std::map<std::string, std::string> truth;  ///< noisy occurrence → clean name
};

/// What one CLUSTER BY execution reported.
struct Measured {
  double grouping_ms = 0, similarity_ms = 0, total_ms = 0;
  double precision = 0, recall = 0, fscore = 0;
  size_t pairs = 0;
  size_t in_dictionary = 0;  ///< reported terms that are dictionary entries
};

// Set by --smoke: tiny corpus so CTest can verify the bench end to end.
size_t g_corpus_rows = 4000;
size_t g_author_pool = 800;

Corpus BuildCorpus(double noise_factor) {
  datagen::DblpOptions dopts;
  dopts.rows = g_corpus_rows;
  dopts.author_pool = g_author_pool;
  dopts.noise_fraction = 0.10;
  dopts.noise_factor = noise_factor;
  dopts.duplicate_fraction = 0;
  std::vector<std::pair<std::string, std::string>> noisy;
  Corpus c;
  c.authors = FlattenListColumn(datagen::MakeDblp(dopts, &noisy), "author").ValueOrDie();
  // MakeDblp draws its clean pool exactly as MakeAuthorDictionary does with
  // the same seed; the query form reads the dictionary column named like
  // the term's.
  const Dataset pool = datagen::MakeAuthorDictionary(g_author_pool, dopts.seed);
  c.dictionary = Dataset(Schema{{"author", ValueType::kString}});
  for (const auto& row : pool.rows()) {
    c.dictionary.Append(row);
    c.entries.insert(row[0].AsString());
  }
  for (const auto& [dirty, clean] : noisy) c.truth.emplace(dirty, clean);
  return c;
}

Measured Run(const Corpus& corpus, const Config& config, double theta) {
  CleanDBOptions options;
  options.shuffle_ns_per_byte = 0;  // pure compute: no simulated network
  options.filtering.q = config.q_or_k;
  options.filtering.k = config.q_or_k;
  CleanDB db(options);
  db.RegisterTable("authors", corpus.authors);
  db.RegisterTable("dictionary", corpus.dictionary);
  char query[128];
  std::snprintf(query, sizeof(query),
                "SELECT * FROM authors a, dictionary d CLUSTER BY(%s, LD, %.2f, a.author)",
                config.op, theta);
  auto prepared = db.Prepare(query);
  ExecOptions exec;
  exec.profile = true;
  const QueryResult result = prepared.ValueOrDie().Execute(exec).ValueOrDie();

  Measured m;
  for (const auto& op : result.profile->operators()) {
    if (op.name == "Nest") m.grouping_ms += static_cast<double>(op.self_ns) / 1e6;
    if (op.name == "Select") m.similarity_ms += static_cast<double>(op.self_ns) / 1e6;
  }
  m.total_ms = result.total_seconds * 1e3;
  size_t correct = 0;
  std::set<std::string> repaired;
  for (const auto& v : result.ops.at(0).violations) {
    const std::string term = v.GetField("term").ValueOrDie().AsString();
    const std::string suggestion = v.GetField("suggestion").ValueOrDie().AsString();
    m.pairs++;
    m.in_dictionary += corpus.entries.count(term);
    auto t = corpus.truth.find(term);
    if (t != corpus.truth.end() && t->second == suggestion) {
      correct++;
      repaired.insert(term);
    }
  }
  m.precision = m.pairs ? static_cast<double>(correct) / static_cast<double>(m.pairs) : 1.0;
  m.recall = corpus.truth.empty() ? 1.0
                                  : static_cast<double>(repaired.size()) /
                                        static_cast<double>(corpus.truth.size());
  m.fscore = m.precision + m.recall > 0
                 ? 2 * m.precision * m.recall / (m.precision + m.recall)
                 : 0;
  return m;
}

}  // namespace
}  // namespace cleanm

int main(int argc, char** argv) {
  using namespace cleanm;
  bench::Flags flags = bench::ParseFlags(argc, argv, {"--smoke", "--check"});
  // The gates read which terms the engine reports, not timings, so every
  // run judges them, the CTest smoke run included; --check only skips E3.
  const bool skip_e3 = flags.check;
  flags.check = true;
  bench::Report report(flags);
  if (report.flags().smoke) {
    g_corpus_rows = 300;
    g_author_pool = 100;
  }
  std::printf("=== E1/E2 — Table 3 + Figure 3: term validation (DBLP-like) ===\n");
  std::printf("paper: tf q=2 P=100%% R=97%% F=98.5 | tf q=3 P=100%% R=96.8%% | "
              "tf q=4 P=99.9%% R=95.9%% | kmeans k=5 R=95.7%% k=10 R=94.8%% "
              "k=20 R=94%%; tf faster than kmeans except q=2-ish regimes\n\n");

  const Corpus corpus = BuildCorpus(0.20);
  std::printf("corpus: %zu author occurrences, %zu dictionary names, %zu ground-truth "
              "repairs\n\n",
              corpus.authors.num_rows(), corpus.dictionary.num_rows(), corpus.truth.size());

  const Config configs[] = {
      {"tf q=2", "tf", 2},         {"tf q=3", "tf", 3},         {"tf q=4", "tf", 4},
      {"kmeans k=5", "kmeans", 5}, {"kmeans k=10", "kmeans", 10}, {"kmeans k=20", "kmeans", 20},
  };

  std::printf("%-12s %9s %9s %9s %7s %8s %8s %8s\n", "config", "group(ms)", "sim(ms)",
              "exec(ms)", "pairs", "prec", "recall", "fscore");
  for (const auto& config : configs) {
    const Measured m = Run(corpus, config, 0.8);
    std::printf("%-12s %9.2f %9.2f %9.2f %7zu %7.1f%% %7.1f%% %7.1f%%\n", config.label,
                m.grouping_ms, m.similarity_ms, m.total_ms, m.pairs, m.precision * 100,
                m.recall * 100, m.fscore * 100);
    report.Require(std::string(config.label) + " reports " + std::to_string(m.in_dictionary) +
                       " dictionary entries as dirty terms (must be 0)",
                   m.in_dictionary == 0);
    if (config.op == std::string("tf") && config.q_or_k == 2) {
      report.Require("tf q=2 reports " + std::to_string(m.pairs) + " pairs (must be > 0)",
                     m.pairs > 0);
    }
  }
  if (skip_e3) return report.Finish();

  std::printf("\n=== E3 — Figure 4: F-score vs noise (theta lowered with noise) ===\n");
  std::printf("paper: accuracy drops slightly with noise; q=4 / k=20 drop the most\n\n");
  std::printf("%-12s", "config");
  for (double noise : {0.20, 0.30, 0.40}) std::printf("  noise=%.0f%%", noise * 100);
  std::printf("\n");
  const Corpus noisy[] = {corpus, BuildCorpus(0.30), BuildCorpus(0.40)};
  for (const auto& config : configs) {
    std::printf("%-12s", config.label);
    for (size_t i = 0; i < 3; i++) {
      const double noise = 0.20 + 0.10 * static_cast<double>(i);
      const double theta = 0.8 - (noise - 0.2);  // lower threshold as noise grows
      std::printf("   %7.1f%%", Run(noisy[i], config, theta).fscore * 100);
    }
    std::printf("\n");
  }
  std::printf("\n[measured] every column comes from the engine's violations, one per "
              "(term, suggestion) pair: no best suggestion is picked, so each extra "
              "suggestion counts against precision.\n");
  return report.Finish();
}
