// The monoid registry: the algebraic structures CleanM comprehensions
// aggregate with (Section 4.1).
//
// The grouping monoids of Section 4.3 (token filtering, k-means center
// assignment) are not registered here: a Nest maps each term to its group
// keys with FilterKeys (cluster/filtering.h) and folds every key's members
// with the registered bag / set monoids. Dictionary union with bag concat
// on collision is exactly that per-key fold, so the paper's associativity
// law holds by the bag monoid's.
//
// A monoid here is (zero, unit, merge) over runtime Values. merge must be
// associative with zero as identity — the properties that make monoid
// comprehensions inherently parallelizable (partial results from different
// partitions merge in any order). The property tests in
// tests/monoid_test.cc check these laws on every registered monoid.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
#include "storage/value.h"

namespace cleanm {

/// \brief Runtime monoid over Values.
class Monoid {
 public:
  Monoid(std::string name, Value zero, std::function<Value(const Value&)> unit,
         std::function<Value(Value, const Value&)> merge, bool commutative,
         bool idempotent)
      : name_(std::move(name)),
        zero_(std::move(zero)),
        unit_(std::move(unit)),
        merge_(std::move(merge)),
        commutative_(commutative),
        idempotent_(idempotent) {}

  const std::string& name() const { return name_; }
  /// The identity element Z⊕, deep-copied: merge is allowed to mutate its
  /// first argument in place, so callers always receive fresh storage.
  Value zero() const { return zero_.DeepCopy(); }
  /// Lifts one element into the monoid's carrier (U⊕).
  Value Unit(const Value& v) const { return unit_(v); }
  /// The associative ⊕. Consumes (and may mutate) its first argument.
  Value Merge(Value a, const Value& b) const { return merge_(std::move(a), b); }
  /// Convenience: merge an element into an accumulator via the unit.
  Value Accumulate(Value acc, const Value& element) const {
    return Merge(std::move(acc), Unit(element));
  }
  bool commutative() const { return commutative_; }
  bool idempotent() const { return idempotent_; }

 private:
  std::string name_;
  Value zero_;
  std::function<Value(const Value&)> unit_;
  std::function<Value(Value, const Value&)> merge_;
  bool commutative_;
  bool idempotent_;
};

/// Looks up a monoid by name. Registered: "sum", "prod", "max", "min",
/// "some" (∨), "all" (∧), "count", "bag", "list", "set".
/// Returns an error for unknown names.
Result<const Monoid*> LookupMonoid(const std::string& name);

/// True if `name` denotes a collection monoid (bag/list/set), whose
/// comprehensions produce collections rather than scalars.
bool IsCollectionMonoid(const std::string& name);

}  // namespace cleanm
