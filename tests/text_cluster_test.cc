// Unit + property tests for similarity metrics and the filtering/clustering
// building blocks (FilterKeys under token filtering and single-pass
// k-means, reservoir sampling).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "cluster/filtering.h"
#include "common/random.h"
#include "text/similarity.h"

namespace cleanm {
namespace {

TEST(LevenshteinTest, KnownDistances) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3u);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3u);
  EXPECT_EQ(LevenshteinDistance("same", "same"), 0u);
  EXPECT_EQ(LevenshteinDistance("a", "b"), 1u);
}

TEST(LevenshteinTest, BoundedEarlyExit) {
  // Bound below the true distance: must report bound+1.
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting", 1), 2u);
  // Bound at/above the true distance: exact.
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting", 3), 3u);
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting", 10), 3u);
  // Length-difference shortcut.
  EXPECT_EQ(LevenshteinDistance("ab", "abcdefgh", 2), 3u);
}

TEST(LevenshteinTest, SimilarityRange) {
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "xyz"), 0.0);
  EXPECT_NEAR(LevenshteinSimilarity("abcd", "abcx"), 0.75, 1e-9);
}

TEST(LevenshteinTest, ThresholdedAgreesWithExact) {
  // Thresholds outside (0, 1] included: similarity lies in [0, 1], so the
  // answer is all-true at or below 0 and all-false above 1.
  const char* words[] = {"smith", "smyth", "smithe", "jones", "jonse", "x", "abc", "xyz", ""};
  for (const char* a : words) {
    for (const char* b : words) {
      for (double theta : {-0.5, 0.0, 0.5, 0.8, 0.9, 1.0, 1.5}) {
        EXPECT_EQ(LevenshteinSimilarAtLeast(a, b, theta),
                  LevenshteinSimilarity(a, b) >= theta)
            << a << " vs " << b << " @ " << theta;
      }
    }
  }
}

// The bit-parallel kernel (behind LevenshteinDistance for strings of up to
// 64 chars) against the two-row DP over seeded random strings: lengths
// 0-130 with 63/64/65 on either side, bytes >= 0x80, near and far pairs,
// and every bound from 0 to 20 plus SIZE_MAX. Results compare as
// min(d, bound + 1): both kernels may stop early once d > bound.
TEST(LevenshteinTest, BitParallelMatchesDp) {
  Rng rng(20260117);
  const char alphabet[] = {'a', 'b', 'c', 'e', ' ', '\x80', '\xc3', '\xff'};
  auto random_string = [&](size_t len) {
    std::string s;
    for (size_t i = 0; i < len; i++) s += alphabet[rng.Uniform(sizeof(alphabet))];
    return s;
  };
  auto random_length = [&]() -> size_t {
    // Both sides of every word edge of the one-word and blocked kernels.
    const size_t edges[] = {0,   1,   2,   63,  64,  65,  127, 128,
                            129, 191, 192, 193, 255, 256, 257};
    constexpr size_t kEdges = sizeof(edges) / sizeof(edges[0]);
    return rng.Uniform(3) == 0 ? edges[rng.Uniform(kEdges)] : rng.Uniform(301);
  };
  auto edit = [&](std::string s) {  // up to 11 random inserts/deletes/substitutions
    const size_t edits = rng.Uniform(12);
    for (size_t e = 0; e < edits; e++) {
      const char c = alphabet[rng.Uniform(sizeof(alphabet))];
      const uint64_t kind = rng.Uniform(3);
      if (s.empty() || kind == 0) {
        s.insert(s.begin() + (s.empty() ? 0 : rng.Uniform(s.size())), c);
      } else if (kind == 1) {
        s.erase(rng.Uniform(s.size()), 1);
      } else {
        s[rng.Uniform(s.size())] = c;
      }
    }
    return s;
  };
  auto capped = [](size_t d, size_t bound) {
    return bound == SIZE_MAX ? d : std::min(d, bound + 1);
  };
  std::vector<size_t> bounds;
  for (size_t bound = 0; bound <= 20; bound++) bounds.push_back(bound);
  bounds.push_back(SIZE_MAX);
  for (int trial = 0; trial < 2500; trial++) {
    const std::string a = random_string(random_length());
    const std::string b = trial % 2 == 0 ? edit(a) : random_string(random_length());
    const size_t d = LevenshteinDistanceDp(a, b);
    for (size_t bound : bounds) {
      for (const auto& [x, y] : {std::make_pair(a, b), std::make_pair(b, a)}) {
        ASSERT_EQ(capped(LevenshteinDistance(x, y, bound), bound), capped(d, bound))
            << "|a|=" << x.size() << " |b|=" << y.size() << " bound=" << bound;
      }
    }
  }
}

// Property: Levenshtein distance is a metric (symmetry + triangle
// inequality) on random short strings.
TEST(LevenshteinTest, MetricPropertiesOnRandomStrings) {
  Rng rng(7);
  auto random_word = [&rng]() {
    std::string s;
    const size_t len = rng.Uniform(8);
    for (size_t i = 0; i < len; i++) s += static_cast<char>('a' + rng.Uniform(4));
    return s;
  };
  for (int trial = 0; trial < 200; trial++) {
    const std::string a = random_word(), b = random_word(), c = random_word();
    const size_t ab = LevenshteinDistance(a, b);
    const size_t ba = LevenshteinDistance(b, a);
    const size_t bc = LevenshteinDistance(b, c);
    const size_t ac = LevenshteinDistance(a, c);
    EXPECT_EQ(ab, ba);
    EXPECT_LE(ac, ab + bc) << a << ' ' << b << ' ' << c;
    EXPECT_EQ(LevenshteinDistance(a, a), 0u);
  }
}

TEST(QGramTest, WindowsAndShortStrings) {
  const auto grams = QGrams("abcd", 2);
  ASSERT_EQ(grams.size(), 3u);
  EXPECT_EQ(grams[0], "ab");
  EXPECT_EQ(grams[2], "cd");
  const auto shorty = QGrams("a", 3);
  ASSERT_EQ(shorty.size(), 1u);
  EXPECT_EQ(shorty[0], "a");
}

TEST(JaccardTest, QGramSimilarity) {
  EXPECT_DOUBLE_EQ(JaccardQGramSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(JaccardQGramSimilarity("abc", "xyz"), 0.0);
  EXPECT_GT(JaccardQGramSimilarity("jonathan", "jonathon"), 0.5);
}

TEST(JaccardTest, TokenSimilarity) {
  EXPECT_DOUBLE_EQ(JaccardTokenSimilarity("a b c", "c b a"), 1.0);
  EXPECT_DOUBLE_EQ(JaccardTokenSimilarity("a b", "a c"), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(JaccardTokenSimilarity("", ""), 1.0);
}

TEST(EuclideanTest, Distance) {
  EXPECT_DOUBLE_EQ(EuclideanDistance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(EuclideanDistance({1}, {1}), 0.0);
}

TEST(MetricParseTest, NamesAndAliases) {
  SimilarityMetric m;
  EXPECT_TRUE(ParseSimilarityMetric("LD", &m));
  EXPECT_EQ(m, SimilarityMetric::kLevenshtein);
  EXPECT_TRUE(ParseSimilarityMetric("Jaccard", &m));
  EXPECT_EQ(m, SimilarityMetric::kJaccard);
  EXPECT_TRUE(ParseSimilarityMetric("euclidean", &m));
  EXPECT_FALSE(ParseSimilarityMetric("cosine", &m));
}

TEST(FilteringAlgoParseTest, NamesAndAliases) {
  FilteringAlgo a;
  EXPECT_TRUE(ParseFilteringAlgo("token_filtering", &a));
  EXPECT_EQ(a, FilteringAlgo::kTokenFiltering);
  EXPECT_TRUE(ParseFilteringAlgo("tf", &a));
  EXPECT_TRUE(ParseFilteringAlgo("KMEANS", &a));
  EXPECT_EQ(a, FilteringAlgo::kKMeans);
  EXPECT_TRUE(ParseFilteringAlgo("exact", &a));
  EXPECT_FALSE(ParseFilteringAlgo("dbscan", &a));
}

/// Token-filtering keys of a string term (FilterKeys ignores k-means's
/// delta and centers).
std::vector<std::string> TfKeys(const std::string& term, size_t q) {
  return FilterKeys(FilteringAlgo::kTokenFiltering, Value(term), q, 0, {});
}

/// K-means keys of a string term.
std::vector<std::string> KMeansKeys(const std::string& term, double delta,
                                    const std::vector<std::string>& centers) {
  return FilterKeys(FilteringAlgo::kKMeans, Value(term), 0, delta, centers);
}

/// True when two terms' key lists share a key: the terms meet in at least
/// one group.
bool ShareKey(const std::vector<std::string>& a, const std::vector<std::string>& b) {
  const std::set<std::string> keys(a.begin(), a.end());
  return std::any_of(b.begin(), b.end(), [&](const auto& k) { return keys.count(k) > 0; });
}

TEST(TokenFilteringTest, SharedTokenGuarantee) {
  // Two strings at edit distance 1 always share a q-gram when long enough;
  // token filtering must put them in at least one common group.
  EXPECT_TRUE(ShareKey(TfKeys("jonathan smith", 2), TfKeys("jonathan smyth", 2)));
}

TEST(TokenFilteringTest, DistinctTokensOnlyOncePerString) {
  // "aaaa" has one distinct 2-gram ("aa"); it must appear once in that group.
  EXPECT_EQ(TfKeys("aaaa", 2), std::vector<std::string>{"aa"});
}

TEST(FilterKeysTest, NonStringTermJoinsNoGroup) {
  // A null (an empty CSV field) or a number groups nowhere, under either
  // algorithm — the one rule the engine and the reference evaluator share.
  for (const Value& term : {Value::Null(), Value(int64_t{7})}) {
    EXPECT_TRUE(FilterKeys(FilteringAlgo::kTokenFiltering, term, 2, 0, {}).empty());
    EXPECT_TRUE(FilterKeys(FilteringAlgo::kKMeans, term, 2, 1.0, {"a", "b"}).empty());
  }
}

TEST(ReservoirSampleTest, SizeAndMembership) {
  std::vector<std::string> input;
  for (int i = 0; i < 100; i++) input.push_back("w" + std::to_string(i));
  const auto sample = ReservoirSample(input, 10, 1);
  EXPECT_EQ(sample.size(), 10u);
  const std::set<std::string> universe(input.begin(), input.end());
  for (const auto& s : sample) EXPECT_TRUE(universe.count(s));
  // Fewer inputs than k: returns all of them.
  const auto small = ReservoirSample({"a", "b"}, 10, 1);
  EXPECT_EQ(small.size(), 2u);
}

TEST(ReservoirSampleTest, DeterministicGivenSeed) {
  std::vector<std::string> input;
  for (int i = 0; i < 50; i++) input.push_back(std::to_string(i));
  EXPECT_EQ(ReservoirSample(input, 5, 9), ReservoirSample(input, 5, 9));
}

// Property: reservoir sampling is (approximately) uniform — every element
// should be selected with probability k/n across many seeds.
TEST(ReservoirSampleTest, ApproximateUniformity) {
  std::vector<std::string> input;
  for (int i = 0; i < 20; i++) input.push_back(std::to_string(i));
  std::map<std::string, int> counts;
  const int trials = 2000;
  for (int seed = 0; seed < trials; seed++) {
    for (const auto& s : ReservoirSample(input, 5, seed)) counts[s]++;
  }
  // Expected count per element = trials * k/n = 500. Allow wide tolerance.
  for (const auto& [elem, count] : counts) {
    EXPECT_GT(count, 350) << elem;
    EXPECT_LT(count, 650) << elem;
  }
}

TEST(KMeansTest, AssignsEveryValueToAtLeastOneCluster) {
  std::vector<std::string> values = {"smith", "smyth", "jones", "jonse", "brown"};
  const auto centers = ReservoirSample(values, 2, 3);
  ASSERT_EQ(centers.size(), 2u);
  for (const auto& v : values) EXPECT_FALSE(KMeansKeys(v, 1.0, centers).empty()) << v;
}

TEST(KMeansTest, DeltaZeroAssignsOnlyNearestCenters) {
  // Centers "aaaa" and "zzzz"; "aaab" is strictly closer to "aaaa".
  EXPECT_EQ(KMeansKeys("aaab", 0.0, {"aaaa", "zzzz"}), std::vector<std::string>{"c0"});
}

TEST(KMeansTest, LargerDeltaProducesMoreAssignments) {
  std::vector<std::string> values;
  Rng rng(5);
  for (int i = 0; i < 50; i++) {
    std::string s;
    for (int j = 0; j < 6; j++) s += static_cast<char>('a' + rng.Uniform(6));
    values.push_back(s);
  }
  const auto centers = ReservoirSample(values, 5, 7);
  size_t tight = 0, loose = 0;
  for (const auto& v : values) {
    tight += KMeansKeys(v, 0.0, centers).size();
    loose += KMeansKeys(v, 2.0, centers).size();
  }
  EXPECT_LE(tight, loose);
}

// Property sweep: across q values, token filtering never separates two
// strings that share a q-gram prefix of their common part.
class TokenFilterParamTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TokenFilterParamTest, SimilarPairsShareGroup) {
  const size_t q = GetParam();
  // Pairs at one substitution apart, length >= 2q so a clean window exists.
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"jonathan", "jonathon"},
      {"margaret", "margaret"},
      {"stephens", "stephans"},
  };
  for (const auto& [a, b] : pairs) {
    EXPECT_TRUE(ShareKey(TfKeys(a, q), TfKeys(b, q))) << a << " vs " << b << " q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(QSweep, TokenFilterParamTest, ::testing::Values(2, 3, 4));

TEST(ZipfTest, RankOneIsMostFrequent) {
  ZipfGenerator zipf(100, 1.0, 11);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 10000; i++) counts[zipf.Next()]++;
  int max_count = 0;
  uint64_t max_rank = 0;
  for (const auto& [rank, count] : counts) {
    if (count > max_count) {
      max_count = count;
      max_rank = rank;
    }
  }
  EXPECT_EQ(max_rank, 1u);
  EXPECT_GT(counts[1], counts[50]);
}

TEST(RngTest, DeterministicAndInRange) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; i++) EXPECT_EQ(a.Next(), b.Next());
  Rng r(5);
  for (int i = 0; i < 1000; i++) {
    EXPECT_LT(r.Uniform(10), 10u);
    const double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    const int64_t v = r.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

}  // namespace
}  // namespace cleanm
