#include "storage/pagestore/row_codec.h"

#include <cstring>

namespace cleanm {

namespace {

void PutU32(uint32_t v, std::string* out) {
  char b[4];
  std::memcpy(b, &v, 4);
  out->append(b, 4);
}

void PutU64(uint64_t v, std::string* out) {
  char b[8];
  std::memcpy(b, &v, 8);
  out->append(b, 8);
}

Status Truncated(const char* what) {
  return Status::IOError(std::string("row codec: truncated payload reading ") +
                         what);
}

Result<uint32_t> GetU32(const std::string& buf, size_t* pos, const char* what) {
  if (buf.size() - *pos < 4) return Truncated(what);
  uint32_t v;
  std::memcpy(&v, buf.data() + *pos, 4);
  *pos += 4;
  return v;
}

Result<uint64_t> GetU64(const std::string& buf, size_t* pos, const char* what) {
  if (buf.size() - *pos < 8) return Truncated(what);
  uint64_t v;
  std::memcpy(&v, buf.data() + *pos, 8);
  *pos += 8;
  return v;
}

Result<std::string> GetBytes(const std::string& buf, size_t* pos, size_t len,
                             const char* what) {
  if (buf.size() - *pos < len) return Truncated(what);
  std::string s(buf.data() + *pos, len);
  *pos += len;
  return s;
}

}  // namespace

void EncodeValue(const Value& v, std::string* out) {
  out->push_back(static_cast<char>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      out->push_back(v.AsBool() ? 1 : 0);
      break;
    case ValueType::kInt: {
      // Two's-complement bits through uint64: exact.
      PutU64(static_cast<uint64_t>(v.AsInt()), out);
      break;
    }
    case ValueType::kDouble: {
      // Raw IEEE bits: NaN payloads, -0.0, everything round-trips.
      uint64_t bits;
      const double d = v.AsDouble();
      std::memcpy(&bits, &d, 8);
      PutU64(bits, out);
      break;
    }
    case ValueType::kString: {
      const std::string& s = v.AsString();
      PutU32(static_cast<uint32_t>(s.size()), out);
      out->append(s);
      break;
    }
    case ValueType::kList: {
      const ValueList& l = v.AsList();
      PutU32(static_cast<uint32_t>(l.size()), out);
      for (const auto& e : l) EncodeValue(e, out);
      break;
    }
    case ValueType::kStruct: {
      const ValueStruct& s = v.AsStruct();
      PutU32(static_cast<uint32_t>(s.size()), out);
      for (const auto& [name, field] : s) {
        PutU32(static_cast<uint32_t>(name.size()), out);
        out->append(name);
        EncodeValue(field, out);
      }
      break;
    }
  }
}

void EncodeRow(const Row& row, std::string* out) {
  PutU32(static_cast<uint32_t>(row.size()), out);
  for (const auto& v : row) EncodeValue(v, out);
}

void EncodeRowChunk(uint32_t count, const std::string& encoded_rows,
                    std::string* out) {
  out->reserve(out->size() + 4 + encoded_rows.size());
  PutU32(count, out);
  out->append(encoded_rows);
}

Result<Value> DecodeValue(const std::string& buf, size_t* pos) {
  if (*pos >= buf.size()) return Truncated("value tag");
  const auto tag = static_cast<ValueType>(buf[(*pos)++]);
  switch (tag) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool: {
      if (*pos >= buf.size()) return Truncated("bool");
      return Value(buf[(*pos)++] != 0);
    }
    case ValueType::kInt: {
      CLEANM_ASSIGN_OR_RETURN(uint64_t bits, GetU64(buf, pos, "int"));
      return Value(static_cast<int64_t>(bits));
    }
    case ValueType::kDouble: {
      CLEANM_ASSIGN_OR_RETURN(uint64_t bits, GetU64(buf, pos, "double"));
      double d;
      std::memcpy(&d, &bits, 8);
      return Value(d);
    }
    case ValueType::kString: {
      CLEANM_ASSIGN_OR_RETURN(uint32_t len, GetU32(buf, pos, "string length"));
      CLEANM_ASSIGN_OR_RETURN(std::string s, GetBytes(buf, pos, len, "string"));
      return Value(std::move(s));
    }
    case ValueType::kList: {
      CLEANM_ASSIGN_OR_RETURN(uint32_t n, GetU32(buf, pos, "list length"));
      ValueList l;
      l.reserve(n);
      for (uint32_t i = 0; i < n; i++) {
        CLEANM_ASSIGN_OR_RETURN(Value e, DecodeValue(buf, pos));
        l.push_back(std::move(e));
      }
      return Value(std::move(l));
    }
    case ValueType::kStruct: {
      CLEANM_ASSIGN_OR_RETURN(uint32_t n, GetU32(buf, pos, "struct length"));
      ValueStruct s;
      s.reserve(n);
      for (uint32_t i = 0; i < n; i++) {
        CLEANM_ASSIGN_OR_RETURN(uint32_t len, GetU32(buf, pos, "field name length"));
        CLEANM_ASSIGN_OR_RETURN(std::string name,
                                GetBytes(buf, pos, len, "field name"));
        CLEANM_ASSIGN_OR_RETURN(Value field, DecodeValue(buf, pos));
        s.emplace_back(std::move(name), std::move(field));
      }
      return Value(std::move(s));
    }
  }
  return Status::IOError("row codec: unknown value tag (corrupt page payload)");
}

Result<Row> DecodeRow(const std::string& buf, size_t* pos) {
  CLEANM_ASSIGN_OR_RETURN(uint32_t arity, GetU32(buf, pos, "row arity"));
  Row row;
  row.reserve(arity);
  for (uint32_t i = 0; i < arity; i++) {
    CLEANM_ASSIGN_OR_RETURN(Value v, DecodeValue(buf, pos));
    row.push_back(std::move(v));
  }
  return row;
}

Status DecodeRowChunk(const std::string& payload, std::vector<Row>* out) {
  size_t pos = 0;
  CLEANM_ASSIGN_OR_RETURN(uint32_t count, GetU32(payload, &pos, "chunk row count"));
  out->reserve(out->size() + count);
  for (uint32_t i = 0; i < count; i++) {
    CLEANM_ASSIGN_OR_RETURN(Row row, DecodeRow(payload, &pos));
    out->push_back(std::move(row));
  }
  if (pos != payload.size()) {
    return Status::IOError("row codec: trailing bytes after chunk");
  }
  return Status::OK();
}

}  // namespace cleanm
