#include "monoid/monoid.h"

#include <unordered_map>

namespace cleanm {

namespace {

Value Identity(const Value& v) { return v; }

double Num(const Value& v) { return v.ToDouble(); }

Value NumValue(const Value& like_a, const Value& like_b, double result) {
  // Preserve int-ness when both operands are ints and the result is whole.
  if (like_a.type() == ValueType::kInt && like_b.type() == ValueType::kInt) {
    return Value(static_cast<int64_t>(result));
  }
  return Value(result);
}

const std::unordered_map<std::string, Monoid>& Registry() {
  static const auto* registry = [] {
    auto* m = new std::unordered_map<std::string, Monoid>();
    m->emplace("sum", Monoid(
        "sum", Value(int64_t{0}), Identity,
        [](const Value& a, const Value& b) { return NumValue(a, b, Num(a) + Num(b)); },
        /*commutative=*/true, /*idempotent=*/false));
    m->emplace("prod", Monoid(
        "prod", Value(int64_t{1}), Identity,
        [](const Value& a, const Value& b) { return NumValue(a, b, Num(a) * Num(b)); },
        true, false));
    // max/min use null as the identity: merge(null, x) = x.
    m->emplace("max", Monoid(
        "max", Value::Null(), Identity,
        [](Value a, const Value& b) {
          if (a.is_null()) return b;
          if (b.is_null()) return a;
          return a.Compare(b) >= 0 ? a : b;
        },
        true, true));
    m->emplace("min", Monoid(
        "min", Value::Null(), Identity,
        [](Value a, const Value& b) {
          if (a.is_null()) return b;
          if (b.is_null()) return a;
          return a.Compare(b) <= 0 ? a : b;
        },
        true, true));
    m->emplace("some", Monoid(
        "some", Value(false), Identity,
        [](Value a, const Value& b) { return Value(a.AsBool() || b.AsBool()); },
        true, true));
    m->emplace("all", Monoid(
        "all", Value(true), Identity,
        [](Value a, const Value& b) { return Value(a.AsBool() && b.AsBool()); },
        true, true));
    m->emplace("count", Monoid(
        "count", Value(int64_t{0}),
        [](const Value&) { return Value(int64_t{1}); },
        [](Value a, const Value& b) { return Value(a.AsInt() + b.AsInt()); },
        true, false));
    m->emplace("bag", Monoid(
        "bag", Value(ValueList{}),
        [](const Value& v) { return Value(ValueList{v}); },
        [](Value a, const Value& b) {
          auto& list = a.MutableList();
          const auto& other = b.AsList();
          list.insert(list.end(), other.begin(), other.end());
          return a;
        },
        true, false));
    m->emplace("list", Monoid(
        "list", Value(ValueList{}),
        [](const Value& v) { return Value(ValueList{v}); },
        [](Value a, const Value& b) {
          auto& list = a.MutableList();
          const auto& other = b.AsList();
          list.insert(list.end(), other.begin(), other.end());
          return a;
        },
        /*commutative=*/false, false));
    m->emplace("set", Monoid(
        "set", Value(ValueList{}),
        [](const Value& v) { return Value(ValueList{v}); },
        [](Value a, const Value& b) {
          auto& list = a.MutableList();
          for (const auto& v : b.AsList()) {
            bool found = false;
            for (const auto& existing : list) {
              if (existing.Equals(v)) {
                found = true;
                break;
              }
            }
            if (!found) list.push_back(v);
          }
          return a;
        },
        true, true));
    return m;
  }();
  return *registry;
}

}  // namespace

Result<const Monoid*> LookupMonoid(const std::string& name) {
  const auto& registry = Registry();
  auto it = registry.find(name);
  if (it == registry.end()) {
    return Status::KeyError("unknown monoid '" + name + "'");
  }
  return &it->second;
}

bool IsCollectionMonoid(const std::string& name) {
  return name == "bag" || name == "list" || name == "set";
}

}  // namespace cleanm
