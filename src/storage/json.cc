#include "storage/json.h"

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace cleanm {

namespace {

void SkipWs(const std::string& t, size_t* pos) {
  while (*pos < t.size() && std::isspace(static_cast<unsigned char>(t[*pos]))) {
    ++*pos;
  }
}

/// Exactly four hex digits at t[pos..pos+3] (the payload of a \uXXXX).
Result<uint32_t> ParseHex4(const std::string& t, size_t pos) {
  if (pos + 4 > t.size()) return Status::ParseError("truncated \\u escape");
  uint32_t v = 0;
  for (size_t i = 0; i < 4; i++) {
    const char c = t[pos + i];
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      v |= static_cast<uint32_t>(c - 'A' + 10);
    } else {
      return Status::ParseError(std::string("bad \\u escape digit '") + c + "'");
    }
  }
  return v;
}

/// Appends a Unicode scalar value to `out` as UTF-8.
void AppendUtf8(uint32_t cp, std::string* out) {
  if (cp < 0x80) {
    *out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    *out += static_cast<char>(0xC0 | (cp >> 6));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    *out += static_cast<char>(0xE0 | (cp >> 12));
    *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    *out += static_cast<char>(0xF0 | (cp >> 18));
    *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

Result<std::string> ParseJsonString(const std::string& t, size_t* pos) {
  if (t[*pos] != '"') return Status::ParseError("expected '\"'");
  ++*pos;
  std::string out;
  while (*pos < t.size()) {
    const char c = t[*pos];
    if (c == '"') {
      ++*pos;
      return out;
    }
    if (c == '\\') {
      ++*pos;
      if (*pos >= t.size()) break;
      const char e = t[*pos];
      switch (e) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case '/': out += '/'; break;
        case '\\': out += '\\'; break;
        case '"': out += '"'; break;
        case 'u': {
          // \uXXXX decodes to UTF-8 — BMP code points directly, astral
          // ones as a UTF-16 surrogate pair (😀 → U+1F600). An
          // unpaired surrogate decodes to U+FFFD (the replacement
          // character), so malformed input can never produce invalid
          // UTF-8. The writer passes non-ASCII bytes through untouched,
          // so decoded strings round-trip.
          CLEANM_ASSIGN_OR_RETURN(uint32_t cp, ParseHex4(t, *pos + 1));
          *pos += 4;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (*pos + 2 < t.size() && t[*pos + 1] == '\\' && t[*pos + 2] == 'u') {
              CLEANM_ASSIGN_OR_RETURN(const uint32_t low, ParseHex4(t, *pos + 3));
              if (low >= 0xDC00 && low <= 0xDFFF) {
                cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                *pos += 6;
              } else {
                cp = 0xFFFD;  // high surrogate followed by a non-low escape
              }
            } else {
              cp = 0xFFFD;  // high surrogate at end / before literal text
            }
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            cp = 0xFFFD;  // low surrogate with no preceding high one
          }
          AppendUtf8(cp, &out);
          break;
        }
        default:
          return Status::ParseError(std::string("bad escape '\\") + e + "'");
      }
      ++*pos;
    } else {
      out += c;
      ++*pos;
    }
  }
  return Status::ParseError("unterminated string");
}

}  // namespace

Result<Value> ParseJsonValue(const std::string& t, size_t* pos) {
  SkipWs(t, pos);
  if (*pos >= t.size()) return Status::ParseError("unexpected end of JSON");
  const char c = t[*pos];
  if (c == '{') {
    ++*pos;
    ValueStruct fields;
    SkipWs(t, pos);
    if (*pos < t.size() && t[*pos] == '}') {
      ++*pos;
      return Value(std::move(fields));
    }
    while (true) {
      SkipWs(t, pos);
      CLEANM_ASSIGN_OR_RETURN(std::string key, ParseJsonString(t, pos));
      SkipWs(t, pos);
      if (*pos >= t.size() || t[*pos] != ':') return Status::ParseError("expected ':'");
      ++*pos;
      CLEANM_ASSIGN_OR_RETURN(Value v, ParseJsonValue(t, pos));
      fields.emplace_back(std::move(key), std::move(v));
      SkipWs(t, pos);
      if (*pos >= t.size()) return Status::ParseError("unterminated object");
      if (t[*pos] == ',') {
        ++*pos;
        continue;
      }
      if (t[*pos] == '}') {
        ++*pos;
        return Value(std::move(fields));
      }
      return Status::ParseError("expected ',' or '}'");
    }
  }
  if (c == '[') {
    ++*pos;
    ValueList items;
    SkipWs(t, pos);
    if (*pos < t.size() && t[*pos] == ']') {
      ++*pos;
      return Value(std::move(items));
    }
    while (true) {
      CLEANM_ASSIGN_OR_RETURN(Value v, ParseJsonValue(t, pos));
      items.push_back(std::move(v));
      SkipWs(t, pos);
      if (*pos >= t.size()) return Status::ParseError("unterminated array");
      if (t[*pos] == ',') {
        ++*pos;
        continue;
      }
      if (t[*pos] == ']') {
        ++*pos;
        return Value(std::move(items));
      }
      return Status::ParseError("expected ',' or ']'");
    }
  }
  if (c == '"') {
    CLEANM_ASSIGN_OR_RETURN(std::string s, ParseJsonString(t, pos));
    return Value(std::move(s));
  }
  if (t.compare(*pos, 4, "true") == 0) {
    *pos += 4;
    return Value(true);
  }
  if (t.compare(*pos, 5, "false") == 0) {
    *pos += 5;
    return Value(false);
  }
  if (t.compare(*pos, 4, "null") == 0) {
    *pos += 4;
    return Value::Null();
  }
  // Number.
  {
    size_t end = *pos;
    bool is_double = false;
    if (end < t.size() && (t[end] == '-' || t[end] == '+')) end++;
    while (end < t.size() &&
           (std::isdigit(static_cast<unsigned char>(t[end])) || t[end] == '.' ||
            t[end] == 'e' || t[end] == 'E' || t[end] == '-' || t[end] == '+')) {
      if (t[end] == '.' || t[end] == 'e' || t[end] == 'E') is_double = true;
      end++;
    }
    if (end == *pos) return Status::ParseError(std::string("unexpected character '") + c + "'");
    const std::string num = t.substr(*pos, end - *pos);
    *pos = end;
    if (is_double) return Value(std::strtod(num.c_str(), nullptr));
    return Value(static_cast<int64_t>(std::strtoll(num.c_str(), nullptr, 10)));
  }
}

Result<Value> ParseJson(const std::string& text) {
  size_t pos = 0;
  CLEANM_ASSIGN_OR_RETURN(Value v, ParseJsonValue(text, &pos));
  SkipWs(text, &pos);
  if (pos != text.size()) return Status::ParseError("trailing characters after JSON value");
  return v;
}

Result<Dataset> ParseJsonLinesString(const std::string& text,
                                     const ReadOptions& options,
                                     ReadReport* report) {
  if (report) *report = ReadReport{};
  std::vector<BadRow> bad_rows;
  auto skip_or_fail = [&](size_t line_no, std::string error) -> Status {
    if (bad_rows.size() < options.max_bad_rows) {
      bad_rows.push_back({line_no, std::move(error)});
      return Status::OK();
    }
    std::string prefix = options.max_bad_rows
                             ? "more than " + std::to_string(options.max_bad_rows) +
                                   " bad rows; "
                             : "";
    return Status::ParseError(prefix + "line " + std::to_string(line_no) + ": " +
                              std::move(error));
  };

  // First pass: parse every line into a struct value, collecting key order.
  std::vector<ValueStruct> objects;
  std::vector<std::string> key_order;
  size_t line_start = 0;
  size_t line_no = 0;  // 1-based once inside the loop
  while (line_start < text.size()) {
    size_t line_end = text.find('\n', line_start);
    if (line_end == std::string::npos) line_end = text.size();
    const std::string line = text.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    line_no++;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    Result<Value> parsed = ParseJson(line);
    if (!parsed.ok()) {
      CLEANM_RETURN_NOT_OK(skip_or_fail(line_no, parsed.status().message()));
      continue;
    }
    Value v = parsed.MoveValue();
    if (v.type() != ValueType::kStruct) {
      CLEANM_RETURN_NOT_OK(skip_or_fail(line_no, "JSON-lines row is not an object"));
      continue;
    }
    for (const auto& [key, val] : v.AsStruct()) {
      (void)val;
      bool seen = false;
      for (const auto& k : key_order) {
        if (k == key) {
          seen = true;
          break;
        }
      }
      if (!seen) key_order.push_back(key);
    }
    objects.push_back(v.AsStruct());
  }

  // Second pass: align rows to the unified key order; missing keys → null.
  std::vector<Field> fields;
  for (const auto& k : key_order) fields.push_back({k, ValueType::kString});
  Dataset out(Schema{std::move(fields)});
  for (auto& obj : objects) {
    Row row;
    row.reserve(key_order.size());
    for (const auto& k : key_order) {
      Value found = Value::Null();
      for (auto& [key, val] : obj) {
        if (key == k) {
          found = val;
          break;
        }
      }
      row.push_back(std::move(found));
    }
    out.Append(std::move(row));
  }
  // Infer field types from first non-null occurrence.
  for (size_t i = 0; i < out.schema().num_fields(); i++) {
    for (const auto& r : out.rows()) {
      if (!r[i].is_null()) {
        out.mutable_schema()->mutable_field(i)->type = r[i].type();
        break;
      }
    }
  }
  if (report) {
    report->bad_rows = std::move(bad_rows);
    report->rows_loaded = out.num_rows();
  }
  return out;
}

Result<Dataset> ReadJsonLines(const std::string& path, const ReadOptions& options,
                              ReadReport* report) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseJsonLinesString(buf.str(), options, report);
}

namespace {
void WriteJsonValue(const Value& v, std::ostream& os) {
  if (v.type() == ValueType::kString) {
    os << '"';
    for (char c : v.AsString()) {
      switch (c) {
        case '"': os << "\\\""; break;
        case '\\': os << "\\\\"; break;
        case '\n': os << "\\n"; break;
        case '\t': os << "\\t"; break;
        case '\r': os << "\\r"; break;
        default: os << c;
      }
    }
    os << '"';
  } else {
    os << v.ToString();
  }
}
}  // namespace

std::string WriteJson(const Value& value) {
  std::ostringstream os;
  WriteJsonValue(value, os);
  return os.str();
}

Status WriteJsonLines(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot create '" + path + "'");
  for (const auto& row : dataset.rows()) {
    out << '{';
    for (size_t i = 0; i < row.size(); i++) {
      if (i) out << ',';
      out << '"' << dataset.schema().field(i).name << "\":";
      if (row[i].type() == ValueType::kList || row[i].type() == ValueType::kStruct) {
        out << row[i].ToString();
      } else {
        WriteJsonValue(row[i], out);
      }
    }
    out << "}\n";
  }
  if (!out) return Status::IOError("write to '" + path + "' failed");
  return Status::OK();
}

}  // namespace cleanm
