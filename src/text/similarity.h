// String similarity metrics and tokenization.
//
// Section 3.1: denial constraints, deduplication, and term validation all
// reduce to similarity joins, so the cost of a cleaning task is dominated by
// (a) how many pairs are compared and (b) how fast one comparison is.
// This module provides the comparison kernels; src/cluster and the planner's
// Nest expansion provide the pair pruning (token filtering / k-means).
//
// Levenshtein runs bit-parallel (Myers 1999, in Hyyrö's 2001 edit-distance
// form) at every length. When the shorter string has at most 64 chars, one
// 64-bit word holds a whole DP column, so a text character costs a few word
// operations. Above 64 chars the column spans ceil(n / 64) words that each
// text character advances in turn (Myers' blocks). Neither allocates up to
// 256 chars. The two-row DP is kept only as the tests' oracle.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cleanm {

/// Levenshtein edit distance with an optional early-exit bound: if the
/// distance provably exceeds `max_bound` the function returns
/// max_bound + 1 without finishing; otherwise it returns the exact
/// distance. Bit-parallel: one word when min(|a|, |b|) <= 64, else blocked.
size_t LevenshteinDistance(std::string_view a, std::string_view b,
                           size_t max_bound = SIZE_MAX);

/// The standard two-row DP with the same early-exit contract. Only the
/// oracle the bit-parallel kernel is tested and benchmarked against; no
/// query path calls it.
size_t LevenshteinDistanceDp(std::string_view a, std::string_view b,
                             size_t max_bound = SIZE_MAX);

/// Normalized Levenshtein similarity in [0, 1]:
/// 1 - distance / max(|a|, |b|). Two empty strings are 100% similar.
double LevenshteinSimilarity(std::string_view a, std::string_view b);

/// Thresholded check: true iff LevenshteinSimilarity(a, b) >= theta.
/// Uses the distance bound for an early exit, so it is cheaper than
/// computing the full similarity when the strings are far apart. Defined
/// for every theta: false above 1 (and for NaN), true at or below 0.
bool LevenshteinSimilarAtLeast(std::string_view a, std::string_view b, double theta);

/// Jaccard similarity of the q-gram sets of the two strings.
double JaccardQGramSimilarity(std::string_view a, std::string_view b, size_t q = 2);

/// Jaccard similarity of whitespace-token sets.
double JaccardTokenSimilarity(std::string_view a, std::string_view b);

/// Splits `s` into its q-grams (sliding windows of length q). Strings
/// shorter than q yield the whole string as their single token.
std::vector<std::string> QGrams(std::string_view s, size_t q);

/// Splits on runs of whitespace.
std::vector<std::string> WhitespaceTokens(std::string_view s);

/// Euclidean distance between equal-length numeric vectors.
double EuclideanDistance(const std::vector<double>& a, const std::vector<double>& b);

/// Supported metric identifiers as they appear in CleanM queries
/// (DEDUP(op, metric, theta, ...)).
enum class SimilarityMetric {
  kLevenshtein,
  kJaccard,
  kEuclidean,
};

/// Parses "LD" / "levenshtein" / "jaccard" / "euclidean" (case-insensitive,
/// without allocating). Returns false on unknown names.
bool ParseSimilarityMetric(std::string_view name, SimilarityMetric* out);

/// Dispatches to the chosen string metric; Euclidean is not valid here.
double StringSimilarity(SimilarityMetric metric, std::string_view a, std::string_view b);

}  // namespace cleanm
