#include "obs/report.hpp"

#include <fstream>

#include "util/check.hpp"
#include "util/json.hpp"

namespace repro::obs {

void MetricsReport::param(std::string_view key, std::string_view value) {
  params_.emplace_back(std::string(key), Value(std::string(value)));
}

void MetricsReport::param(std::string_view key, std::int64_t value) {
  params_.emplace_back(std::string(key), Value(value));
}

void MetricsReport::param(std::string_view key, double value) {
  params_.emplace_back(std::string(key), Value(value));
}

void MetricsReport::param(std::string_view key, bool value) {
  params_.emplace_back(std::string(key), Value(value));
}

void MetricsReport::metric(std::string_view key, double value) {
  metrics_.emplace_back(std::string(key), value);
}

void MetricsReport::counter(std::string_view key, std::uint64_t value) {
  counters_.emplace_back(std::string(key), value);
}

std::string MetricsReport::to_json() const {
  util::JsonWriter json;
  json.begin_object();
  json.kv("schema", "repro-metrics-v1");
  json.kv("name", name_);
  json.key("params");
  json.begin_object();
  for (const auto& [key, value] : params_) {
    json.key(key);
    std::visit([&json](const auto& v) { json.value(v); }, value);
  }
  json.end_object();
  json.key("metrics");
  json.begin_object();
  for (const auto& [key, value] : metrics_) json.kv(key, value);
  json.end_object();
  json.key("counters");
  json.begin_object();
  for (const auto& [key, value] : counters_) json.kv(key, value);
  json.end_object();
  json.end_object();
  return json.str();
}

void MetricsReport::write_file(const std::string& path) const {
  std::ofstream out(path);
  REPRO_CHECK_MSG(out.good(), "cannot open metrics JSON file " << path);
  out << to_json() << '\n';
  REPRO_CHECK_MSG(out.good(), "write to metrics JSON file " << path
                                                            << " failed");
}

}  // namespace repro::obs
