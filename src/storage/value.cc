#include "storage/value.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace cleanm {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kNull: return "null";
    case ValueType::kBool: return "bool";
    case ValueType::kInt: return "int";
    case ValueType::kDouble: return "double";
    case ValueType::kString: return "string";
    case ValueType::kList: return "list";
    case ValueType::kStruct: return "struct";
  }
  return "?";
}

ValueCoercionError::ValueCoercionError(ValueType actual, const char* wanted)
    : std::runtime_error(std::string("cannot read ") + ValueTypeName(actual) +
                         " value as " + wanted) {}

Result<Value> Value::GetField(const std::string& name) const {
  if (type() != ValueType::kStruct) {
    return Status::TypeError("GetField on non-struct value of type " +
                             std::string(ValueTypeName(type())));
  }
  for (const auto& [fname, fval] : AsStruct()) {
    if (fname == name) return fval;
  }
  return Status::KeyError("no field named '" + name + "'");
}

bool Value::Equals(const Value& other) const {
  if (type() != other.type()) return false;
  switch (type()) {
    case ValueType::kNull: return true;
    case ValueType::kBool: return AsBool() == other.AsBool();
    case ValueType::kInt: return AsInt() == other.AsInt();
    case ValueType::kDouble: return AsDouble() == other.AsDouble();
    case ValueType::kString: return AsString() == other.AsString();
    case ValueType::kList: {
      const auto& a = AsList();
      const auto& b = other.AsList();
      if (a.size() != b.size()) return false;
      for (size_t i = 0; i < a.size(); i++) {
        if (!a[i].Equals(b[i])) return false;
      }
      return true;
    }
    case ValueType::kStruct: {
      const auto& a = AsStruct();
      const auto& b = other.AsStruct();
      if (a.size() != b.size()) return false;
      for (size_t i = 0; i < a.size(); i++) {
        if (a[i].first != b[i].first || !a[i].second.Equals(b[i].second)) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

namespace {
int Sign(double d) { return d < 0 ? -1 : (d > 0 ? 1 : 0); }
}  // namespace

int Value::Compare(const Value& other) const {
  // Cross-type numeric comparison first; otherwise order by type rank.
  if (is_numeric() && other.is_numeric()) {
    return Sign(ToDouble() - other.ToDouble());
  }
  if (type() != other.type()) {
    return static_cast<int>(type()) < static_cast<int>(other.type()) ? -1 : 1;
  }
  switch (type()) {
    case ValueType::kNull: return 0;
    case ValueType::kBool: return static_cast<int>(AsBool()) - static_cast<int>(other.AsBool());
    case ValueType::kInt: {
      const int64_t a = AsInt(), b = other.AsInt();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case ValueType::kDouble: return Sign(AsDouble() - other.AsDouble());
    case ValueType::kString: {
      const int c = AsString().compare(other.AsString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case ValueType::kList: {
      const auto& a = AsList();
      const auto& b = other.AsList();
      const size_t n = a.size() < b.size() ? a.size() : b.size();
      for (size_t i = 0; i < n; i++) {
        const int c = a[i].Compare(b[i]);
        if (c != 0) return c;
      }
      return a.size() < b.size() ? -1 : (a.size() > b.size() ? 1 : 0);
    }
    case ValueType::kStruct: {
      const auto& a = AsStruct();
      const auto& b = other.AsStruct();
      const size_t n = a.size() < b.size() ? a.size() : b.size();
      for (size_t i = 0; i < n; i++) {
        const int nc = a[i].first.compare(b[i].first);
        if (nc != 0) return nc < 0 ? -1 : 1;
        const int c = a[i].second.Compare(b[i].second);
        if (c != 0) return c;
      }
      return a.size() < b.size() ? -1 : (a.size() > b.size() ? 1 : 0);
    }
  }
  return 0;
}

uint64_t Value::Hash() const {
  const uint64_t tag = HashInt(static_cast<uint64_t>(type()));
  switch (type()) {
    case ValueType::kNull: return tag;
    case ValueType::kBool: return HashCombine(tag, HashInt(AsBool() ? 1 : 0));
    case ValueType::kInt: return HashCombine(tag, HashInt(static_cast<uint64_t>(AsInt())));
    case ValueType::kDouble: {
      const double d = AsDouble();
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      std::memcpy(&bits, &d, sizeof(bits));
      return HashCombine(tag, HashInt(bits));
    }
    case ValueType::kString: return HashCombine(tag, HashString(AsString()));
    case ValueType::kList: {
      uint64_t h = tag;
      for (const auto& v : AsList()) h = HashCombine(h, v.Hash());
      return h;
    }
    case ValueType::kStruct: {
      uint64_t h = tag;
      for (const auto& [name, v] : AsStruct()) {
        h = HashCombine(h, HashString(name));
        h = HashCombine(h, v.Hash());
      }
      return h;
    }
  }
  return tag;
}

Value Value::DeepCopy() const {
  switch (type()) {
    case ValueType::kList: {
      ValueList copy;
      copy.reserve(AsList().size());
      for (const auto& v : AsList()) copy.push_back(v.DeepCopy());
      return Value(std::move(copy));
    }
    case ValueType::kStruct: {
      ValueStruct copy;
      copy.reserve(AsStruct().size());
      for (const auto& [name, v] : AsStruct()) copy.emplace_back(name, v.DeepCopy());
      return Value(std::move(copy));
    }
    default:
      return *this;  // scalars have value semantics already
  }
}

size_t Value::ByteSize() const {
  switch (type()) {
    case ValueType::kNull: return 1;
    case ValueType::kBool: return 1;
    case ValueType::kInt: return 8;
    case ValueType::kDouble: return 8;
    case ValueType::kString: return AsString().size() + 8;
    case ValueType::kList: {
      size_t s = 16;
      for (const auto& v : AsList()) s += v.ByteSize();
      return s;
    }
    case ValueType::kStruct: {
      size_t s = 16;
      for (const auto& [name, v] : AsStruct()) s += name.size() + v.ByteSize();
      return s;
    }
  }
  return 0;
}

namespace {
void Render(const Value& v, bool quote_strings, std::string* out) {
  switch (v.type()) {
    case ValueType::kNull: *out += "null"; break;
    case ValueType::kBool: *out += v.AsBool() ? "true" : "false"; break;
    case ValueType::kInt: {
      char buf[24];
      const auto res = std::to_chars(buf, buf + sizeof(buf), v.AsInt());
      out->append(buf, res.ptr);
      break;
    }
    case ValueType::kDouble: {
      // The shortest %g form that round-trips exactly, else 17 digits; whole
      // values stay visibly doubles ("5.0" or "6e+01", never "5" or "60") so
      // readers re-infer the right type.
      const double d = v.AsDouble();
      char buf[32];
      int prec = 1;
      for (; prec < 17; prec++) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, d);
        if (std::strtod(buf, nullptr) == d) break;
      }
      if (prec == 17) std::snprintf(buf, sizeof(buf), "%.17g", d);
      *out += buf;
      if (std::strpbrk(buf, ".eE") == nullptr &&
          std::strpbrk(buf, "0123456789") != nullptr) {
        *out += ".0";
      }
      break;
    }
    case ValueType::kString:
      if (quote_strings) {
        *out += '"';
        *out += v.AsString();
        *out += '"';
      } else {
        *out += v.AsString();
      }
      break;
    case ValueType::kList: {
      *out += '[';
      bool first = true;
      for (const auto& e : v.AsList()) {
        if (!first) *out += ',';
        first = false;
        Render(e, /*quote_strings=*/true, out);
      }
      *out += ']';
      break;
    }
    case ValueType::kStruct: {
      *out += '{';
      bool first = true;
      for (const auto& [name, e] : v.AsStruct()) {
        if (!first) *out += ',';
        first = false;
        *out += '"';
        *out += name;
        *out += "\":";
        Render(e, /*quote_strings=*/true, out);
      }
      *out += '}';
      break;
    }
  }
}
}  // namespace

std::string Value::ToString() const {
  std::string out;
  Render(*this, /*quote_strings=*/false, &out);
  return out;
}

std::string CanonicalString(const Value& v) {
  if (v.type() == ValueType::kStruct) {
    std::vector<std::pair<std::string, std::string>> fields;
    for (const auto& [name, field] : v.AsStruct()) {
      fields.emplace_back(name, CanonicalString(field));
    }
    std::sort(fields.begin(), fields.end());
    std::string out = "{";
    for (const auto& [name, repr] : fields) out += name + ":" + repr + ",";
    return out + "}";
  }
  if (v.type() == ValueType::kList) {
    std::vector<std::string> elems;
    for (const auto& e : v.AsList()) elems.push_back(CanonicalString(e));
    std::sort(elems.begin(), elems.end());
    std::string out = "[";
    for (const auto& e : elems) out += e + ",";
    return out + "]";
  }
  return v.ToString();
}

uint64_t HashRow(const Row& row) {
  uint64_t h = 0x9ae16a3b2f90404fULL;
  for (const auto& v : row) h = HashCombine(h, v.Hash());
  return h;
}

size_t RowByteSize(const Row& row) {
  size_t s = 8;
  for (const auto& v : row) s += v.ByteSize();
  return s;
}

}  // namespace cleanm
