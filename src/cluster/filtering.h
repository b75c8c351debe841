// Pair-pruning building blocks for similarity joins (Section 4.2/4.3):
// token filtering and the single-pass k-means variant of ClusterJoin.
//
// Both assign every term to one or more group keys such that similar terms
// share at least one key with high probability; similarity checks then run
// only within groups, replacing the quadratic cartesian product. FilterKeys
// is the one place either key is computed: the physical Nest expansion
// (physical/planner.cc) and the reference evaluator (algebra/algebra_eval.cc)
// both call it, and fold each key's members with the ordinary registered
// monoids (bag / set).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "storage/value.h"

namespace cleanm {

/// The filtering/blocking algorithms CleanM queries can name in the <op>
/// position of DEDUP / CLUSTER BY.
enum class FilteringAlgo {
  kTokenFiltering,  ///< group by q-gram tokens (paper: "tf")
  kKMeans,          ///< single-pass k-means on edit distance to sampled centers
  kExactKey,        ///< group by the exact attribute value (equality blocking)
};

/// Parses "token_filtering"/"tf", "kmeans"/"k-means", "exact"/"key".
bool ParseFilteringAlgo(std::string_view name, FilteringAlgo* out);

/// Parameters of both algorithms; a clause's <op> picks the algorithm.
struct FilteringOptions {
  size_t q = 2;           ///< token length for token filtering
  size_t k = 10;          ///< number of centers for k-means
  double delta = 1.0;     ///< extra distance slack for multi-assignment
  uint64_t seed = 42;     ///< center-sampling seed
};

/// \brief The group keys of one term under token filtering or k-means.
///
/// - Token filtering (Section 4.3): the term's distinct q-grams, sorted, so
///   candidate pairs must share at least one token.
/// - K-means (ClusterJoin-inspired): "c<i>" for every center whose edit
///   distance to the term is within `delta` of the nearest center's
///   (favouring multiple assignments, so similar terms meet in some
///   cluster). `centers` come from ReservoirSample over the dictionary or
///   the data; with none, the term joins no group.
///
/// A non-string term (a null from an empty CSV field, say) joins no group.
/// Exact-key grouping does not come through here: its one key is the term.
std::vector<std::string> FilterKeys(FilteringAlgo algo, const Value& term, size_t q,
                                    double delta, const std::vector<std::string>& centers);

/// Reservoir sampling (Vitter): k uniform samples in one pass. This is the
/// "center initialization via the function composition monoid" of the paper;
/// deterministic given the seed.
std::vector<std::string> ReservoirSample(const std::vector<std::string>& input,
                                         size_t k, uint64_t seed);

}  // namespace cleanm
