#include "harness.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace cleanm::bench {
namespace {

bool TakesValue(std::string_view flag) { return flag == "--out" || flag == "--trace-out"; }

/// The top-level (key, raw JSON value) entries of the object in `text`.
Result<std::vector<std::pair<std::string, std::string>>> SplitObject(const std::string& text) {
  std::vector<std::pair<std::string, std::string>> entries;
  const Status malformed = Status::InvalidArgument("not a JSON object");
  size_t i = 0;
  auto skip_space = [&] {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) i++;
  };
  // From an opening quote at `i`, moves `i` past the closing one.
  auto skip_string = [&] {
    for (i++; i < text.size() && text[i] != '"'; i++) {
      if (text[i] == '\\') i++;
    }
    i++;
  };
  skip_space();
  if (i == text.size()) return entries;
  if (text[i++] != '{') return malformed;
  skip_space();
  if (i < text.size() && text[i] == '}') return entries;
  while (true) {
    skip_space();
    if (i >= text.size() || text[i] != '"') return malformed;
    const size_t key_start = i + 1;
    skip_string();
    if (i > text.size()) return malformed;
    std::string key = text.substr(key_start, i - 1 - key_start);
    skip_space();
    if (i >= text.size() || text[i++] != ':') return malformed;
    skip_space();
    const size_t value_start = i;
    int depth = 0;
    for (; i < text.size(); i++) {
      const char c = text[i];
      if (c == '"') {
        skip_string();
        i--;
      } else if (c == '{' || c == '[') {
        depth++;
      } else if ((c == '}' || c == ']') && depth > 0) {
        depth--;
      } else if ((c == '}' || c == ',') && depth == 0) {
        break;
      }
    }
    if (i >= text.size()) return malformed;
    size_t value_end = i;
    while (value_end > value_start &&
           std::isspace(static_cast<unsigned char>(text[value_end - 1]))) {
      value_end--;
    }
    entries.emplace_back(std::move(key), text.substr(value_start, value_end - value_start));
    if (text[i++] == '}') return entries;
  }
}

}  // namespace

Result<Flags> TryParseFlags(int argc, const char* const* argv,
                            std::initializer_list<std::string_view> accepted) {
  Flags flags;
  for (int i = 1; i < argc; i++) {
    const std::string_view arg = argv[i];
    if (std::find(accepted.begin(), accepted.end(), arg) == accepted.end()) {
      return Status::InvalidArgument("unknown flag " + std::string(arg));
    }
    if (!TakesValue(arg)) {
      (arg == "--smoke" ? flags.smoke : arg == "--check" ? flags.check : flags.nonet) = true;
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      (arg == "--out" ? flags.out : flags.trace_out) = argv[++i];
    } else {
      return Status::InvalidArgument(std::string(arg) + " needs a value");
    }
  }
  return flags;
}

Flags ParseFlags(int argc, char** argv, std::initializer_list<std::string_view> accepted) {
  Result<Flags> flags = TryParseFlags(argc, argv, accepted);
  if (flags.ok()) return flags.MoveValue();
  std::string usage = "usage: " + std::string(argc > 0 ? argv[0] : "bench");
  for (const std::string_view name : accepted) {
    usage += " [" + std::string(name) + (TakesValue(name) ? " <path>]" : "]");
  }
  std::fprintf(stderr, "%s\n%s\n", flags.status().message().c_str(), usage.c_str());
  std::exit(2);
}

CleanDBOptions SessionOptions(bool nonet) {
  CleanDBOptions opts;
  opts.num_nodes = 8;
  opts.shuffle_ns_per_byte = nonet ? 0.0 : 40.0;
  return opts;
}

// ---- Section ----

Section& Section::Add(std::string name, std::string text, double value) {
  if (rows_.empty()) rows_.emplace_back();
  rows_.back().push_back({std::move(name), std::move(text), value});
  return *this;
}

Section& Section::Number(std::string name, double v, int decimals) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.*f", decimals, v);
  return Add(std::move(name), text, v);
}

Section& Section::Count(std::string name, uint64_t v) {
  return Add(std::move(name), std::to_string(v), static_cast<double>(v));
}

Section& Section::Flag(std::string name, bool v) {
  return Add(std::move(name), v ? "1" : "0", v ? 1 : 0);
}

Section& Section::Bool(std::string name, bool v) {
  return Add(std::move(name), v ? "true" : "false", v ? 1 : 0);
}

Section& Section::PrintOnly() {
  rows_.back().back().json = false;
  return *this;
}

Section& Section::Row() {
  array_ = true;
  rows_.emplace_back();
  return *this;
}

Section& Section::Compare(const char* op, double x, bool pass, Gate gate) {
  const Field& field = rows_.back().back();
  char what[256];
  std::snprintf(what, sizeof(what), "%s.%s = %s (%s %g)", name_.c_str(), field.name.c_str(),
                field.text.c_str(), op, x);
  report_->gates_.push_back({what, pass, gate});
  return *this;
}

Section& Section::AtLeast(double x, Gate gate) {
  return Compare(">=", x, rows_.back().back().value >= x, gate);
}
Section& Section::AtMost(double x, Gate gate) {
  return Compare("<=", x, rows_.back().back().value <= x, gate);
}
Section& Section::Above(double x, Gate gate) {
  return Compare(">", x, rows_.back().back().value > x, gate);
}
Section& Section::Equals(double x, Gate gate) {
  return Compare("==", x, rows_.back().back().value == x, gate);
}

Section& Section::Require(const std::string& what, bool pass, Gate gate) {
  report_->Require(name_ + ": " + what, pass, gate);
  return *this;
}

std::string Section::Json() const {
  std::string out;
  for (const auto& row : rows_) {
    std::string object;
    for (const auto& field : row) {
      if (!field.json) continue;
      object += (object.empty() ? "{\"" : ", \"") + field.name + "\": " + field.text;
    }
    if (object.empty()) continue;
    out += (out.empty() ? "" : ", ") + object + "}";
  }
  if (out.empty() || !array_) return out;
  return "[" + out + "]";
}

void Section::Print() const {
  for (const auto& row : rows_) {
    if (array_) {
      std::string line;
      for (const auto& field : row) line += "  " + field.name + " " + field.text;
      std::printf("%s\n", line.c_str());
    } else {
      for (const auto& field : row) {
        std::printf("  %-28s %s\n", field.name.c_str(), field.text.c_str());
      }
    }
  }
}

// ---- Report ----

Section& Report::Add(const std::string& name, const std::string& title) {
  for (; printed_ < sections_.size(); printed_++) sections_[printed_].Print();
  std::printf("\n=== %s ===\n", title.c_str());
  std::fflush(stdout);
  return sections_.emplace_back(this, name);
}

void Report::Text(std::string key, const std::string& value) {
  texts_.emplace_back(std::move(key), "\"" + value + "\"");
}

void Report::Require(std::string what, bool pass, Gate gate) {
  gates_.push_back({std::move(what), pass, gate});
}

int Report::Finish() {
  for (; printed_ < sections_.size(); printed_++) sections_[printed_].Print();
  int code = 0;
  if (!flags_.out.empty()) {
    std::vector<std::pair<std::string, std::string>> entries = texts_;
    for (const auto& section : sections_) {
      std::string json = section.Json();
      if (!json.empty()) entries.emplace_back(section.name(), std::move(json));
    }
    const Status written = MergeJson(flags_.out, entries);
    if (written.ok()) {
      std::printf("[written] %s\n", flags_.out.c_str());
    } else {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      code = 1;
    }
  }
  if (flags_.check) {
    size_t hard = 0, failed = 0, warned = 0;
    for (const auto& g : gates_) {
      const bool is_hard = g.gate == Gate::kHard;
      hard += is_hard;
      if (g.pass) {
        std::printf("[check] ok: %s\n", g.what.c_str());
      } else if (is_hard) {
        failed++;
        std::fprintf(stderr, "[check] FAILED: %s\n", g.what.c_str());
      } else {
        warned++;
        std::printf("[check] WARNING (advisory): %s\n", g.what.c_str());
      }
    }
    std::fflush(stdout);
    if (failed > 0) {
      std::fprintf(stderr, "[check] FAILED: %zu of %zu hard gates\n", failed, hard);
      code = 1;
    } else {
      std::printf("[check] passed: %zu hard gates; %zu of %zu advisory gates warned\n", hard,
                  warned, gates_.size() - hard);
    }
  }
  return code;
}

Status MergeJson(const std::string& path,
                 const std::vector<std::pair<std::string, std::string>>& entries) {
  std::string text;
  if (std::ifstream in(path); in) {
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  Result<std::vector<std::pair<std::string, std::string>>> split = SplitObject(text);
  if (!split.ok()) return Status::InvalidArgument(path + ": " + split.status().message());
  std::vector<std::pair<std::string, std::string>> merged = split.MoveValue();
  for (const auto& entry : entries) {
    auto same_key = [&](const auto& kept) { return kept.first == entry.first; };
    auto it = std::find_if(merged.begin(), merged.end(), same_key);
    if (it != merged.end()) {
      it->second = entry.second;
    } else {
      merged.push_back(entry);
    }
  }
  std::ofstream out(path);
  out << "{\n";
  for (size_t i = 0; i < merged.size(); i++) {
    out << "  \"" << merged[i].first << "\": " << merged[i].second
        << (i + 1 < merged.size() ? ",\n" : "\n");
  }
  out << "}\n";
  out.close();
  if (!out) return Status::IOError("cannot write " + path);
  return Status::OK();
}

}  // namespace cleanm::bench
