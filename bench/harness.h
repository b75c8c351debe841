// The harness every bench driver links: one flag parser, the paper benches'
// session options, a best-of-N timer, and a Report whose Sections carry
// each measured field and each gate, declared once next to the code that
// measures it. The printout, the --check verdict and the --out JSON
// section are all generated from that one declaration:
//
//   bench::Report report(bench::ParseFlags(argc, argv, {"--smoke", "--check", "--out"}));
//   bench::Section& s = report.Add("dispatch", "RunOnNodes dispatch latency");
//   s.Number("spawn_per_call_ns", spawn_ns, 1);
//   s.Number("worker_pool_ns", pool_ns, 1).AtMost(0.9 * spawn_ns);
//   return report.Finish();
//
// Kept out of src/ and of the bench_*.cc glob: only the drivers and
// tests/bench_harness_test.cc link it.
#pragma once

#include <cstdint>
#include <deque>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "cleaning/cleandb.h"
#include "common/status.h"
#include "common/timer.h"

namespace cleanm::bench {

/// The command line of a bench driver.
struct Flags {
  bool smoke = false;     ///< --smoke: tiny sizes (the CTest run)
  bool check = false;     ///< --check: print the gate verdict, exit 1 on a failed hard gate
  bool nonet = false;     ///< --nonet: zero simulated network cost (pure compute)
  std::string out;        ///< --out <path>: merge the sections into this JSON file
  std::string trace_out;  ///< --trace-out <path>: write a Chrome trace here
};

/// Parses argv[1..] against `accepted`, the subset of the flags above that
/// a driver takes. An argument not in `accepted`, or --out / --trace-out
/// without a value, is an InvalidArgument error.
Result<Flags> TryParseFlags(int argc, const char* const* argv,
                            std::initializer_list<std::string_view> accepted);

/// TryParseFlags for main(): on an error, prints it and the driver's usage
/// to stderr and exits 2, so a typo never runs the bench at full scale.
Flags ParseFlags(int argc, char** argv, std::initializer_list<std::string_view> accepted);

/// The session the paper benches run on: 8 virtual nodes and 40 ns per
/// shuffled byte, the effective cost of a shuffle hop including
/// serialization (shuffles dominate cleaning jobs on real clusters; see
/// DESIGN.md), or 0 ns under --nonet.
CleanDBOptions SessionOptions(bool nonet);

/// num / den, or 0 when den is not positive (an arm that did not run).
inline double Quotient(double num, double den) { return den > 0 ? num / den : 0; }

/// The fastest of repeated timings of the same work.
class BestTime {
 public:
  /// Runs `fn` under a wall-clock timer, keeps the fastest time so far, and
  /// returns what `fn` returns.
  template <typename Fn>
  auto Time(Fn&& fn) {
    Timer timer;
    if constexpr (std::is_void_v<std::invoke_result_t<Fn>>) {
      fn();
      Add(timer.ElapsedSeconds());
    } else {
      auto result = fn();
      Add(timer.ElapsedSeconds());
      return result;
    }
  }

  /// The fastest time in seconds; -1 before the first timing.
  double seconds() const { return seconds_; }

 private:
  void Add(double s) {
    if (seconds_ < 0 || s < seconds_) seconds_ = s;
  }
  double seconds_ = -1;
};

enum class Gate { kHard, kAdvisory };

class Report;

/// One measured section: named fields, printed in declaration order and
/// written to the JSON file as one object (an array of objects once Row()
/// was called), and the gates on them.
class Section {
 public:
  Section(Report* report, std::string name) : report_(report), name_(std::move(name)) {}

  Section& Number(std::string name, double v, int decimals);
  Section& Seconds(std::string name, double v) { return Number(std::move(name), v, 6); }
  Section& Ratio(std::string name, double v) { return Number(std::move(name), v, 3); }
  Section& Count(std::string name, uint64_t v);
  Section& Flag(std::string name, bool v);  ///< written as 1 or 0
  Section& Bool(std::string name, bool v);  ///< written as true or false
  /// The last field is printed but not written to the JSON file.
  Section& PrintOnly();
  /// Starts the next element of an array section.
  Section& Row();

  // Gates on the last field's value.
  Section& AtLeast(double x, Gate gate = Gate::kHard);
  Section& AtMost(double x, Gate gate = Gate::kHard);
  Section& Above(double x, Gate gate = Gate::kHard);
  Section& Equals(double x, Gate gate = Gate::kHard);
  /// A gate on a condition that no single field states.
  Section& Require(const std::string& what, bool pass, Gate gate = Gate::kHard);

  const std::string& name() const { return name_; }
  /// The JSON value of the section; empty when no field goes to the file.
  std::string Json() const;
  void Print() const;

 private:
  struct Field {
    std::string name;
    std::string text;  ///< as printed and written
    double value = 0;  ///< as gated
    bool json = true;
  };
  Section& Add(std::string name, std::string text, double value);
  Section& Compare(const char* op, double x, bool pass, Gate gate);

  Report* report_;
  std::string name_;
  std::vector<std::vector<Field>> rows_;
  bool array_ = false;
};

/// A driver's measured sections and gates.
class Report {
 public:
  explicit Report(Flags flags) : flags_(std::move(flags)) {}
  Report(const Report&) = delete;
  Report& operator=(const Report&) = delete;

  const Flags& flags() const { return flags_; }

  /// Starts a section: prints the previous one, then `title`.
  Section& Add(const std::string& name, const std::string& title);
  /// A top-level string entry of the JSON file.
  void Text(std::string key, const std::string& value);
  /// A gate outside any section.
  void Require(std::string what, bool pass, Gate gate = Gate::kHard);

  /// Prints the last section; under --out merges every section into the
  /// file; under --check prints every gate, each failure included. Returns
  /// the driver's exit code: 1 if the file could not be written or a hard
  /// gate failed under --check, else 0.
  int Finish();

 private:
  friend class Section;
  struct GateResult {
    std::string what;
    bool pass;
    Gate gate;
  };

  Flags flags_;
  std::vector<std::pair<std::string, std::string>> texts_;
  std::deque<Section> sections_;  // a deque keeps handed-out references valid
  size_t printed_ = 0;
  std::vector<GateResult> gates_;
};

/// Sets each (key, JSON value) of `entries` among the top-level entries of
/// the JSON object in the file at `path`, replacing an entry of the same
/// key in place and keeping the others. A missing or empty file starts
/// from an empty object.
Status MergeJson(const std::string& path,
                 const std::vector<std::pair<std::string, std::string>>& entries);

}  // namespace cleanm::bench
