// Dynamic value model for heterogeneous data.
//
// CleanM operates over relational *and* nested data (JSON/XML, Section 3).
// Value is the single runtime representation used across the storage layer,
// the execution engine, and the expression evaluator: scalars plus nested
// lists and (name, value) structs, so a JSON document and a CSV row flow
// through identical operator code.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/hash.h"
#include "common/status.h"

namespace cleanm {

class Value;

/// Nested collection payload (lists / bags).
using ValueList = std::vector<Value>;
/// Nested record payload: ordered (field name, value) pairs.
using ValueStruct = std::vector<std::pair<std::string, Value>>;

enum class ValueType : uint8_t {
  kNull = 0,
  kBool,
  kInt,
  kDouble,
  kString,
  kList,
  kStruct,
};

const char* ValueTypeName(ValueType t);

/// Thrown when a value is read as the wrong type — e.g. a cleaning rule
/// calling ToDouble on a string cell. Deliberately an ordinary catchable
/// exception (not an abort): the executor's poison-row quarantine records
/// the offending row and skips it, and the session layer converts an
/// uncaught escape into Status::Internal.
class ValueCoercionError : public std::runtime_error {
 public:
  ValueCoercionError(ValueType actual, const char* wanted);
};

/// \brief Tagged dynamic value: null, bool, int64, double, string, list,
/// or struct. Lists and structs are shared_ptr-backed so copying rows
/// through shuffles is cheap.
class Value {
 public:
  Value() : v_(std::monostate{}) {}
  explicit Value(bool b) : v_(b) {}
  explicit Value(int64_t i) : v_(i) {}
  explicit Value(double d) : v_(d) {}
  explicit Value(std::string s) : v_(std::move(s)) {}
  explicit Value(const char* s) : v_(std::string(s)) {}
  explicit Value(ValueList l) : v_(std::make_shared<ValueList>(std::move(l))) {}
  explicit Value(ValueStruct s) : v_(std::make_shared<ValueStruct>(std::move(s))) {}

  static Value Null() { return Value(); }

  ValueType type() const { return static_cast<ValueType>(v_.index()); }
  bool is_null() const { return type() == ValueType::kNull; }

  // Checked accessors: a type mismatch throws ValueCoercionError with both
  // type names instead of a bare std::bad_variant_access (which aborted the
  // process when it escaped a worker thread before the exception capture).
  bool AsBool() const { Expect(ValueType::kBool, "bool"); return std::get<bool>(v_); }
  int64_t AsInt() const { Expect(ValueType::kInt, "int"); return std::get<int64_t>(v_); }
  double AsDouble() const {
    Expect(ValueType::kDouble, "double");
    return std::get<double>(v_);
  }
  const std::string& AsString() const {
    Expect(ValueType::kString, "string");
    return std::get<std::string>(v_);
  }
  const ValueList& AsList() const {
    Expect(ValueType::kList, "list");
    return *std::get<std::shared_ptr<ValueList>>(v_);
  }
  const ValueStruct& AsStruct() const {
    Expect(ValueType::kStruct, "struct");
    return *std::get<std::shared_ptr<ValueStruct>>(v_);
  }
  ValueList& MutableList() {
    Expect(ValueType::kList, "list");
    return *std::get<std::shared_ptr<ValueList>>(v_);
  }
  ValueStruct& MutableStruct() {
    Expect(ValueType::kStruct, "struct");
    return *std::get<std::shared_ptr<ValueStruct>>(v_);
  }

  /// Numeric coercion: ints and doubles read as double; anything else
  /// throws ValueCoercionError (quarantinable).
  double ToDouble() const {
    if (type() == ValueType::kInt) return static_cast<double>(std::get<int64_t>(v_));
    Expect(ValueType::kDouble, "numeric");
    return std::get<double>(v_);
  }

  bool is_numeric() const {
    return type() == ValueType::kInt || type() == ValueType::kDouble;
  }

  /// Looks up a struct field by name; KeyError if absent.
  Result<Value> GetField(const std::string& name) const;

  /// Deep structural equality (int 1 != double 1.0; null == null).
  bool Equals(const Value& other) const;

  /// Total order for sorting: null < bool < numeric < string < list < struct;
  /// ints and doubles compare numerically against each other.
  /// Returns <0, 0, >0.
  int Compare(const Value& other) const;

  /// Deterministic deep hash consistent with Equals.
  uint64_t Hash() const;

  /// Deep copy: nested lists/structs get fresh storage. Needed whenever a
  /// value will be mutated in place (Value copies share nested storage).
  Value DeepCopy() const;

  /// Approximate in-memory footprint in bytes (shuffle-traffic accounting).
  size_t ByteSize() const;

  /// Renders JSON-ish text: strings quoted inside containers, bare at top.
  std::string ToString() const;

  bool operator==(const Value& other) const { return Equals(other); }

 private:
  void Expect(ValueType want, const char* wanted) const {
    if (type() != want) throw ValueCoercionError(type(), wanted);
  }

  std::variant<std::monostate, bool, int64_t, double, std::string,
               std::shared_ptr<ValueList>, std::shared_ptr<ValueStruct>>
      v_;
};

/// A row is a flat vector of values, positionally aligned with a Schema.
using Row = std::vector<Value>;

/// Deep hash of a full row.
uint64_t HashRow(const Row& row);

/// Approximate row footprint in bytes.
size_t RowByteSize(const Row& row);

}  // namespace cleanm
