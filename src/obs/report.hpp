// Machine-readable perf records (the BENCH_*.json / --metrics-json format).
//
// A MetricsReport is one self-describing JSON document:
//
//   {
//     "schema": "repro-metrics-v1",
//     "name": "<bench or tool name>",
//     "params": { ... },       // run configuration (m, tops, engine, ...)
//     "metrics": { ... },      // derived numbers (percentages, rates)
//     "counters": { ... }      // explicit monotonic counts for this run
//   }
//
// Benches write one per invocation via --json <path>; reprofind writes one
// per `find` run via --metrics-json <path>. The schema is documented in
// README.md ("Metrics JSON") and EXPERIMENTS.md.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace repro::obs {

class MetricsReport {
 public:
  explicit MetricsReport(std::string name) : name_(std::move(name)) {}

  /// Run configuration (appears under "params").
  void param(std::string_view key, std::string_view value);
  void param(std::string_view key, const char* value) {
    param(key, std::string_view(value));
  }
  void param(std::string_view key, std::int64_t value);
  void param(std::string_view key, int value) {
    param(key, static_cast<std::int64_t>(value));
  }
  void param(std::string_view key, double value);
  void param(std::string_view key, bool value);

  /// Derived numbers (appears under "metrics").
  void metric(std::string_view key, double value);

  /// Monotonic counts for this run (appears under "counters").
  void counter(std::string_view key, std::uint64_t value);

  /// The finished document as a JSON string.
  [[nodiscard]] std::string to_json() const;

  /// Writes to_json() + '\n' to `path`; throws on I/O failure.
  void write_file(const std::string& path) const;

 private:
  using Value = std::variant<std::string, std::int64_t, double, bool>;

  std::string name_;
  std::vector<std::pair<std::string, Value>> params_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, std::uint64_t>> counters_;
};

}  // namespace repro::obs
