#include "storage/csv.h"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace cleanm {

namespace {

/// Splits one CSV record, honouring double-quote escaping. `pos` advances
/// past the record's trailing newline. `newlines` counts every '\n'
/// consumed (quoted embedded newlines included) so the caller can keep a
/// physical line counter; `unterminated` reports a quote still open when
/// the record ended (at EOF — an embedded newline just continues the
/// record), which tolerant loads treat as a bad row.
std::vector<std::string> SplitRecord(const std::string& text, size_t* pos, char delim,
                                     size_t* newlines, bool* unterminated) {
  std::vector<std::string> out;
  std::string cur;
  bool in_quotes = false;
  *newlines = 0;
  size_t i = *pos;
  for (; i < text.size(); i++) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          cur += '"';
          i++;
        } else {
          in_quotes = false;
        }
      } else {
        if (c == '\n') ++*newlines;
        cur += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == delim) {
      out.push_back(std::move(cur));
      cur.clear();
    } else if (c == '\n') {
      ++*newlines;
      i++;
      break;
    } else if (c == '\r') {
      // swallow; \n handled next iteration
    } else {
      cur += c;
    }
  }
  out.push_back(std::move(cur));
  *pos = i;
  *unterminated = in_quotes;
  return out;
}

bool LooksLikeInt(const std::string& s) {
  if (s.empty()) return false;
  size_t i = (s[0] == '-' || s[0] == '+') ? 1 : 0;
  if (i == s.size()) return false;
  for (; i < s.size(); i++) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
  }
  return true;
}

bool LooksLikeDouble(const std::string& s) {
  if (s.empty()) return false;
  char* end = nullptr;
  std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

Value ParseCell(const std::string& s, bool infer) {
  if (s.empty()) return Value::Null();
  if (!infer) return Value(s);
  if (LooksLikeInt(s)) return Value(static_cast<int64_t>(std::strtoll(s.c_str(), nullptr, 10)));
  if (LooksLikeDouble(s)) return Value(std::strtod(s.c_str(), nullptr));
  return Value(s);
}

void WriteCell(const Value& v, char delim, std::ostream& os) {
  const std::string s = v.is_null() ? "" : v.ToString();
  const bool needs_quotes = s.find(delim) != std::string::npos ||
                            s.find('"') != std::string::npos ||
                            s.find('\n') != std::string::npos;
  if (!needs_quotes) {
    os << s;
    return;
  }
  os << '"';
  for (char c : s) {
    if (c == '"') os << '"';
    os << c;
  }
  os << '"';
}

}  // namespace

// Column types are tracked online — first non-null value per column — so
// no second pass over the rows is needed to build the schema.
Result<Dataset> ParseCsvString(const std::string& text, const CsvOptions& options,
                               ReadReport* report) {
  if (report) *report = ReadReport{};
  std::vector<BadRow> bad_rows;
  // Skips one malformed record (recording it) while under the cap; over
  // the cap the whole load fails, naming the line.
  auto skip_or_fail = [&](size_t line_no, std::string error) -> Status {
    if (bad_rows.size() < options.read.max_bad_rows) {
      bad_rows.push_back({line_no, std::move(error)});
      return Status::OK();
    }
    std::string prefix = options.read.max_bad_rows
                             ? "more than " + std::to_string(options.read.max_bad_rows) +
                                   " bad rows; "
                             : "";
    return Status::ParseError(prefix + "line " + std::to_string(line_no) + ": " +
                              std::move(error));
  };

  size_t pos = 0;
  size_t line = 1;  // 1-based physical line of the next record
  size_t newlines = 0;
  bool unterminated = false;
  std::vector<std::string> header;
  if (options.has_header) {
    if (pos >= text.size()) return Status::ParseError("empty CSV input");
    header = SplitRecord(text, &pos, options.delimiter, &newlines, &unterminated);
    if (unterminated) {
      return Status::ParseError("line 1: unterminated quoted field in header");
    }
    line += newlines;
  }

  size_t width = header.size();
  std::vector<Row> rows;
  std::vector<ValueType> col_types(width, ValueType::kString);
  std::vector<bool> col_typed(width, false);
  while (pos < text.size()) {
    const size_t record_line = line;
    auto cells = SplitRecord(text, &pos, options.delimiter, &newlines, &unterminated);
    line += newlines;
    if (!unterminated && cells.size() == 1 && cells[0].empty()) continue;  // blank line
    if (unterminated) {
      CLEANM_RETURN_NOT_OK(
          skip_or_fail(record_line, "unterminated quoted field"));
      continue;
    }
    if (width == 0) {
      width = cells.size();
      col_types.assign(width, ValueType::kString);
      col_typed.assign(width, false);
    }
    if (cells.size() != width) {
      CLEANM_RETURN_NOT_OK(skip_or_fail(
          record_line, "CSV record has " + std::to_string(cells.size()) +
                           " fields, expected " + std::to_string(width)));
      continue;
    }
    Row row;
    row.reserve(cells.size());
    for (const auto& c : cells) row.push_back(ParseCell(c, options.infer_types));
    for (size_t i = 0; i < width; i++) {
      if (!col_typed[i] && !row[i].is_null()) {
        col_types[i] = row[i].type();
        col_typed[i] = true;
      }
    }
    rows.push_back(std::move(row));
  }
  if (report) {
    report->bad_rows = std::move(bad_rows);
    report->rows_loaded = rows.size();
  }

  // Schema: header names (or f0..fn), types from the first non-null value
  // seen in each column.
  std::vector<Field> fields;
  for (size_t i = 0; i < width; i++) {
    Field f;
    f.name = options.has_header ? header[i] : ("f" + std::to_string(i));
    f.type = col_types[i];
    fields.push_back(std::move(f));
  }
  return Dataset(Schema(std::move(fields)), std::move(rows));
}

Result<Dataset> ReadCsv(const std::string& path, const CsvOptions& options,
                        ReadReport* report) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseCsvString(buf.str(), options, report);
}

Status WriteCsv(const Dataset& dataset, const std::string& path,
                const CsvOptions& options) {
  for (const auto& f : dataset.schema().fields()) {
    if (f.type == ValueType::kList || f.type == ValueType::kStruct) {
      return Status::InvalidArgument("CSV cannot store nested column '" + f.name +
                                     "'; flatten the dataset first");
    }
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot create '" + path + "'");
  if (options.has_header) {
    for (size_t i = 0; i < dataset.schema().num_fields(); i++) {
      if (i) out << options.delimiter;
      out << dataset.schema().field(i).name;
    }
    out << '\n';
  }
  for (const auto& row : dataset.rows()) {
    for (size_t i = 0; i < row.size(); i++) {
      if (i) out << options.delimiter;
      WriteCell(row[i], options.delimiter, out);
    }
    out << '\n';
  }
  if (!out) return Status::IOError("write to '" + path + "' failed");
  return Status::OK();
}

}  // namespace cleanm
