#include "cluster/filtering.h"

#include <algorithm>
#include <cctype>

#include "common/random.h"
#include "common/status.h"
#include "text/similarity.h"

namespace cleanm {

bool ParseFilteringAlgo(std::string_view name, FilteringAlgo* out) {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  // Accept the spellings used in the paper's queries and obvious variants.
  if (lower == "token_filtering" || lower == "token filtering" || lower == "tf") {
    *out = FilteringAlgo::kTokenFiltering;
    return true;
  }
  if (lower == "kmeans" || lower == "k-means" || lower == "k_means") {
    *out = FilteringAlgo::kKMeans;
    return true;
  }
  if (lower == "exact" || lower == "key" || lower == "exact_key") {
    *out = FilteringAlgo::kExactKey;
    return true;
  }
  return false;
}

std::vector<std::string> FilterKeys(FilteringAlgo algo, const Value& term, size_t q,
                                    double delta, const std::vector<std::string>& centers) {
  CLEANM_CHECK(algo != FilteringAlgo::kExactKey);
  std::vector<std::string> keys;
  if (term.type() != ValueType::kString) return keys;
  const std::string& s = term.AsString();
  if (algo == FilteringAlgo::kTokenFiltering) {
    // Set semantics: a q-gram repeated within one term is one key.
    keys = QGrams(s, q);
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return keys;
  }
  // K-means: the minimum edit distance to any center (the Min monoid of the
  // center-assignment step), then one key per center within delta of it.
  std::vector<size_t> dists(centers.size());
  size_t best = SIZE_MAX;
  for (size_t c = 0; c < centers.size(); c++) {
    dists[c] = LevenshteinDistance(s, centers[c]);
    best = std::min(best, dists[c]);
  }
  for (size_t c = 0; c < centers.size(); c++) {
    if (static_cast<double>(dists[c]) <= static_cast<double>(best) + delta) {
      keys.push_back("c" + std::to_string(c));
    }
  }
  return keys;
}

std::vector<std::string> ReservoirSample(const std::vector<std::string>& input,
                                         size_t k, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> reservoir;
  reservoir.reserve(k);
  for (size_t i = 0; i < input.size(); i++) {
    if (reservoir.size() < k) {
      reservoir.push_back(input[i]);
    } else {
      const uint64_t j = rng.Uniform(i + 1);
      if (j < k) reservoir[j] = input[i];
    }
  }
  return reservoir;
}

}  // namespace cleanm
