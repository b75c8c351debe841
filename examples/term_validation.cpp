// Term validation with suggested repairs: validate noisy author names
// against a dictionary, comparing the token-filtering and k-means pruning
// monoids (Section 4.3) on the same corpus.
//
//   build/examples/example_term_validation
#include <cstdio>

#include "cleaning/cleandb.h"
#include "datagen/generators.h"

using namespace cleanm;

int main() {
  // Noisy author occurrences + the clean dictionary.
  std::vector<std::pair<std::string, std::string>> ground_truth;
  datagen::DblpOptions dopts;
  dopts.rows = 300;
  dopts.noise_fraction = 0.15;
  dopts.duplicate_fraction = 0;
  auto dblp = datagen::MakeDblp(dopts, &ground_truth);

  // Flatten the author lists so each occurrence is one row.
  auto flat = FlattenListColumn(dblp, "author").ValueOrDie();
  Dataset dict(Schema{{"name", ValueType::kString}});
  {
    std::set<std::string> names;
    for (const auto& [dirty, clean] : ground_truth) names.insert(clean);
    for (const auto& n : names) dict.Append({Value(n)});
  }
  std::printf("%zu author occurrences, %zu ground-truth misspellings, dictionary of %zu\n",
              flat.num_rows(), ground_truth.size(), dict.num_rows());

  CleanDBOptions options;
  options.num_nodes = 4;
  CleanDB db(options);
  db.RegisterTable("authors", flat);
  db.RegisterTable("dict", dict);

  for (auto algo : {FilteringAlgo::kTokenFiltering, FilteringAlgo::kKMeans}) {
    ClusterByClause cb;
    cb.op = algo;
    cb.metric = SimilarityMetric::kLevenshtein;
    cb.theta = 0.75;
    cb.term = ParseCleanMExpr("a.author").ValueOrDie();
    auto result = db.ValidateTerms("authors", "a", "dict", "name", cb).ValueOrDie();
    std::printf("\n--- %s: %zu suggestion(s) in %.3f s (showing up to 5) ---\n",
                algo == FilteringAlgo::kTokenFiltering ? "token filtering" : "k-means",
                result.violations.size(), result.seconds);
    size_t shown = 0;
    for (const auto& v : result.violations) {
      if (shown++ >= 5) break;
      std::printf("  '%s' -> '%s'\n",
                  v.GetField("term").ValueOrDie().AsString().c_str(),
                  v.GetField("suggestion").ValueOrDie().AsString().c_str());
    }
  }
  // Both runs read the same two tables: the in-dictionary check is an
  // anti-join inside the plan, not a table registered per call. So the
  // session partition cache scans each table once (scan_misses=2) and
  // serves every later scan from memory, the k-means pass's included
  // (scan_hits > 0).
  std::printf("\nsession partition cache after both passes: %s\n",
              db.partition_cache().stats().ToString().c_str());
  return 0;
}
