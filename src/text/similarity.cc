#include "text/similarity.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <unordered_set>

#include "common/status.h"

namespace cleanm {

namespace {

/// Bit-parallel Levenshtein (Myers 1999; Hyyrö 2001). Column j of the DP
/// matrix over the pattern `a` is held as vertical-delta bit vectors: bit i
/// of `pv` / `mv` is set when D[i+1][j] - D[i][j] is +1 / -1. `score`
/// tracks the last row, D[|a|][j]. Requires 1 <= |a| <= 64 and |a| <= |b|.
size_t LevenshteinBitParallel(std::string_view a, std::string_view b,
                              size_t max_bound) {
  // peq[c]: the positions of byte c in `a`.
  uint64_t peq[256] = {};
  for (size_t i = 0; i < a.size(); i++) {
    peq[static_cast<unsigned char>(a[i])] |= uint64_t{1} << i;
  }
  const uint64_t last = uint64_t{1} << (a.size() - 1);
  uint64_t pv = ~uint64_t{0};
  uint64_t mv = 0;
  size_t score = a.size();
  for (size_t j = 0; j < b.size(); j++) {
    const uint64_t eq = peq[static_cast<unsigned char>(b[j])];
    const uint64_t xv = eq | mv;
    const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    uint64_t ph = mv | ~(xh | pv);
    uint64_t mh = pv & xh;
    if (ph & last) {
      score++;
    } else if (mh & last) {
      score--;
    }
    // The last row falls by at most one per remaining column.
    const size_t remaining = b.size() - j - 1;
    if (score > remaining && score - remaining > max_bound) return max_bound + 1;
    // Row 0 of the DP is D[0][j] = j: its horizontal delta is always +1.
    ph = (ph << 1) | 1;
    mh <<= 1;
    pv = mh | ~(xv | ph);
    mv = ph & xv;
  }
  return score;
}

/// Patterns of up to this many words keep their state on the stack.
constexpr size_t kStackWords = 4;

/// The same recurrence for |a| > 64 (Myers 1999, Section 4): the pattern
/// spans ceil(|a| / 64) words, and each text character advances them top
/// down. The horizontal delta leaving a word's top bit enters the next word
/// as bit 0 of `ph` (+1) or `mh` (-1), where row 0's +1 enters the
/// single-word loop; a -1 also counts as a match at bit 0 in `xh`.
/// Requires |a| <= |b|.
size_t LevenshteinBlocked(std::string_view a, std::string_view b, size_t max_bound) {
  const size_t words = (a.size() + 63) / 64;
  // One buffer: peq[c * words + w], then pv[w], then mv[w].
  uint64_t stack[(256 + 2) * kStackWords];
  std::vector<uint64_t> heap;
  uint64_t* peq = stack;
  if (words > kStackWords) {
    heap.resize((256 + 2) * words);
    peq = heap.data();
  }
  uint64_t* pv = peq + 256 * words;
  uint64_t* mv = pv + words;
  std::fill(peq, peq + 256 * words, uint64_t{0});
  for (size_t i = 0; i < a.size(); i++) {
    peq[static_cast<unsigned char>(a[i]) * words + i / 64] |= uint64_t{1} << (i % 64);
  }
  std::fill(pv, pv + words, ~uint64_t{0});
  std::fill(mv, mv + words, uint64_t{0});
  const unsigned last_bit = (a.size() - 1) % 64;
  size_t score = a.size();
  for (size_t j = 0; j < b.size(); j++) {
    const uint64_t* eqs = peq + static_cast<unsigned char>(b[j]) * words;
    // The horizontal delta entering the next word, as a +1 bit and a -1
    // bit; row 0 of the DP is D[0][j] = j, so it starts at +1.
    uint64_t hp = 1;
    uint64_t hm = 0;
    for (size_t w = 0; w < words; w++) {
      const uint64_t p = pv[w];
      const uint64_t m = mv[w];
      const uint64_t xv = eqs[w] | m;
      const uint64_t eq = eqs[w] | hm;
      const uint64_t xh = (((eq & p) + p) ^ p) | eq;
      uint64_t ph = m | ~(xh | p);
      uint64_t mh = p & xh;
      const unsigned top = w + 1 < words ? 63 : last_bit;
      const uint64_t hp_out = (ph >> top) & 1;
      const uint64_t hm_out = (mh >> top) & 1;
      ph = (ph << 1) | hp;
      mh = (mh << 1) | hm;
      pv[w] = mh | ~(xv | ph);
      mv[w] = ph & xv;
      hp = hp_out;
      hm = hm_out;
    }
    score = score + hp - hm;
    // As in the single-word loop: the last row falls by at most one per
    // remaining column.
    const size_t remaining = b.size() - j - 1;
    if (score > remaining && score - remaining > max_bound) return max_bound + 1;
  }
  return score;
}

}  // namespace

size_t LevenshteinDistance(std::string_view a, std::string_view b, size_t max_bound) {
  if (a.size() > b.size()) std::swap(a, b);
  // |len(a) - len(b)| is a lower bound on the distance.
  if (b.size() - a.size() > max_bound) return max_bound + 1;
  if (a.empty()) return b.size();
  if (a.size() <= 64) return LevenshteinBitParallel(a, b, max_bound);
  return LevenshteinBlocked(a, b, max_bound);
}

size_t LevenshteinDistanceDp(std::string_view a, std::string_view b, size_t max_bound) {
  if (a.size() > b.size()) std::swap(a, b);
  if (b.size() - a.size() > max_bound) return max_bound + 1;
  std::vector<size_t> prev(a.size() + 1), cur(a.size() + 1);
  for (size_t i = 0; i <= a.size(); i++) prev[i] = i;
  for (size_t j = 1; j <= b.size(); j++) {
    cur[0] = j;
    size_t row_min = cur[0];
    for (size_t i = 1; i <= a.size(); i++) {
      const size_t sub = prev[i - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[i] = std::min({prev[i] + 1, cur[i - 1] + 1, sub});
      row_min = std::min(row_min, cur[i]);
    }
    if (row_min > max_bound) return max_bound + 1;  // cannot recover
    std::swap(prev, cur);
  }
  return prev[a.size()];
}

double LevenshteinSimilarity(std::string_view a, std::string_view b) {
  const size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  const size_t d = LevenshteinDistance(a, b);
  return 1.0 - static_cast<double>(d) / static_cast<double>(longest);
}

bool LevenshteinSimilarAtLeast(std::string_view a, std::string_view b, double theta) {
  // Similarity lies in [0, 1]; outside (0, 1] the answer needs no distance
  // (and the bound below would be negative).
  if (!(theta <= 1.0)) return false;
  if (theta <= 0.0) return true;
  const size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return true;
  // similarity >= theta  <=>  distance <= (1 - theta) * longest.
  // The epsilon guards against (1 - 0.8) * 5 = 0.999... flooring to 0.
  const auto bound =
      static_cast<size_t>((1.0 - theta) * static_cast<double>(longest) + 1e-9);
  return LevenshteinDistance(a, b, bound) <= bound;
}

std::vector<std::string> QGrams(std::string_view s, size_t q) {
  CLEANM_CHECK(q > 0);
  std::vector<std::string> grams;
  if (s.size() < q) {
    grams.emplace_back(s);
    return grams;
  }
  grams.reserve(s.size() - q + 1);
  for (size_t i = 0; i + q <= s.size(); i++) {
    grams.emplace_back(s.substr(i, q));
  }
  return grams;
}

std::vector<std::string> WhitespaceTokens(std::string_view s) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) i++;
    const size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) i++;
    if (i > start) tokens.emplace_back(s.substr(start, i - start));
  }
  return tokens;
}

namespace {
double JaccardOfSets(const std::vector<std::string>& a, const std::vector<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  std::unordered_set<std::string> sa(a.begin(), a.end());
  std::unordered_set<std::string> sb(b.begin(), b.end());
  size_t inter = 0;
  for (const auto& t : sa) {
    if (sb.count(t)) inter++;
  }
  const size_t uni = sa.size() + sb.size() - inter;
  if (uni == 0) return 1.0;
  return static_cast<double>(inter) / static_cast<double>(uni);
}
}  // namespace

double JaccardQGramSimilarity(std::string_view a, std::string_view b, size_t q) {
  return JaccardOfSets(QGrams(a, q), QGrams(b, q));
}

double JaccardTokenSimilarity(std::string_view a, std::string_view b) {
  return JaccardOfSets(WhitespaceTokens(a), WhitespaceTokens(b));
}

double EuclideanDistance(const std::vector<double>& a, const std::vector<double>& b) {
  CLEANM_CHECK(a.size() == b.size());
  double sum = 0;
  for (size_t i = 0; i < a.size(); i++) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

namespace {

/// ASCII case-insensitive equality; `lower` is already lower case.
bool EqualsIgnoreCase(std::string_view s, std::string_view lower) {
  if (s.size() != lower.size()) return false;
  for (size_t i = 0; i < s.size(); i++) {
    const char c = s[i];
    if ((c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c) != lower[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool ParseSimilarityMetric(std::string_view name, SimilarityMetric* out) {
  if (EqualsIgnoreCase(name, "ld") || EqualsIgnoreCase(name, "levenshtein")) {
    *out = SimilarityMetric::kLevenshtein;
    return true;
  }
  if (EqualsIgnoreCase(name, "jaccard")) {
    *out = SimilarityMetric::kJaccard;
    return true;
  }
  if (EqualsIgnoreCase(name, "euclidean")) {
    *out = SimilarityMetric::kEuclidean;
    return true;
  }
  return false;
}

double StringSimilarity(SimilarityMetric metric, std::string_view a, std::string_view b) {
  switch (metric) {
    case SimilarityMetric::kLevenshtein: return LevenshteinSimilarity(a, b);
    case SimilarityMetric::kJaccard: return JaccardQGramSimilarity(a, b);
    case SimilarityMetric::kEuclidean: break;
  }
  CLEANM_CHECK(false && "Euclidean metric requires numeric vectors");
  return 0;
}

}  // namespace cleanm
