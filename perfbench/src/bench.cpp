#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>

namespace perfbench {

void Ledger::fail(const std::string& what) {
  ++failed_;
  std::cerr << "check failed: " << what << "\n";
}

std::size_t Ledger::failed() const {
  // A failed aggregate check adds no operation; never report more failures
  // than attempts.
  return std::min(failed_, std::max<std::size_t>(attempted_, 1));
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  Span span;
  span.name = name;
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  span.start_s = seconds_since(tracer_->origin_);
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end_s =
      seconds_since(tracer_->origin_);
  tracer_->open_.pop_back();
}

double Tracer::total_s(const std::string& name) const {
  double total = 0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.end_s - span.start_s;
  }
  return total;
}

std::size_t Tracer::count(const std::string& name) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const Span& span) { return span.name == name; }));
}

double Tracer::mean_s(const std::string& name) const {
  const std::size_t n = count(name);
  return n == 0 ? 0.0 : total_s(name) / static_cast<double>(n);
}

double Tracer::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

const std::vector<double>& Tracer::samples(const std::string& series) const {
  static const std::vector<double> kEmpty;
  const auto it = samples_.find(series);
  return it == samples_.end() ? kEmpty : it->second;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  out << std::setprecision(9) << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << span.name
        << "\", \"start_s\": " << span.start_s << ", \"end_s\": " << span.end_s
        << ", \"parent\": " << span.parent << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "], \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    out << (first ? "" : ", ") << "\"" << name << "\": " << value;
    first = false;
  }
  out << "}}\n";
  return static_cast<bool>(out);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const std::size_t low = static_cast<std::size_t>(std::floor(position));
  const std::size_t high = std::min(low + 1, values.size() - 1);
  const double weight = position - static_cast<double>(low);
  return values[low] * (1.0 - weight) + values[high] * weight;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void add_end_to_end_metrics(Outcome& outcome, double setup_s,
                            const std::vector<double>& faults_per_s,
                            const std::vector<double>& op_ms) {
  const Ledger& ledger = outcome.ledger;
  const double attempted =
      static_cast<double>(std::max<std::size_t>(ledger.attempted(), 1));
  outcome.metrics["setup_s"] = {setup_s, "s"};
  outcome.metrics["success_rate"] = {
      1.0 - static_cast<double>(ledger.failed()) / attempted, "ratio"};
  outcome.metrics["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
  outcome.metrics["faults_per_s"] = {median(faults_per_s), "1/s"};
  outcome.metrics["op_p50_ms"] = {quantile(op_ms, 0.5), "ms"};
  outcome.metrics["op_p90_ms"] = {quantile(op_ms, 0.9), "ms"};
}

}  // namespace perfbench
