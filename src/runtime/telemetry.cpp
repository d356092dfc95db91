#include "runtime/telemetry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "runtime/json.h"

namespace ppgr::runtime {

const char* to_string(HealthState state) {
  switch (state) {
    case HealthState::kOk: return "ok";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kStalled: return "stalled";
  }
  return "?";
}

void OpenMetricsBuilder::family(const std::string& name, const char* type,
                                const std::string& help) {
  body_ += "# TYPE " + name + " " + type + "\n";
  if (!help.empty()) body_ += "# HELP " + name + " " + help + "\n";
}

void OpenMetricsBuilder::sample(const std::string& name,
                                const std::string& labels, double value) {
  body_ += name;
  if (!labels.empty()) body_ += "{" + labels + "}";
  appendf(body_, " %.9g\n", value);
}

void OpenMetricsBuilder::sample(const std::string& name,
                                const std::string& labels,
                                std::uint64_t value) {
  body_ += name;
  if (!labels.empty()) body_ += "{" + labels + "}";
  body_ += " " + std::to_string(value) + "\n";
}

void OpenMetricsBuilder::histogram(const std::string& name,
                                   const std::string& labels,
                                   const LatencyHistogram& hist) {
  // Cumulative buckets over the occupied bin range only: 40 fixed bins
  // would bloat every scrape; the top occupied bin plus +Inf loses nothing.
  std::size_t top = 0;
  for (std::size_t i = 0; i < LatencyHistogram::kBins; ++i)
    if (hist.bins()[i] != 0) top = i + 1;
  std::uint64_t cum = 0;
  const std::string sep = labels.empty() ? "" : ",";
  for (std::size_t i = 0; i < top; ++i) {
    cum += hist.bins()[i];
    std::string bucket = labels + sep;
    appendf(bucket, "le=\"%.9g\"", LatencyHistogram::bin_upper_seconds(i));
    sample(name + "_bucket", bucket, cum);
  }
  sample(name + "_bucket", labels + sep + "le=\"+Inf\"", hist.count());
  sample(name + "_sum", labels, hist.total_seconds());
  sample(name + "_count", labels, hist.count());
}

TelemetrySampler::TelemetrySampler(Config cfg,
                                   std::function<TelemetrySample()> produce)
    : cfg_(std::move(cfg)), produce_(std::move(produce)) {
  if (cfg_.period_s <= 0.0)
    throw std::invalid_argument("TelemetrySampler: period must be > 0");
  if (!produce_)
    throw std::invalid_argument("TelemetrySampler: produce callback required");
}

TelemetrySampler::~TelemetrySampler() { stop(); }

void TelemetrySampler::start() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (started_)
      throw std::logic_error("TelemetrySampler: already started");
  }
  // Fail fast on an unwritable JSONL path before the thread exists (the
  // OpenMetrics tmp-file path is probed identically on the first sample).
  // Probed before latching started_, so a failed start leaves the sampler
  // stoppable/destroyable without a thread to join.
  if (!cfg_.jsonl_path.empty()) {
    std::ofstream probe{cfg_.jsonl_path, std::ios::trunc};
    if (!probe)
      throw std::runtime_error("TelemetrySampler: cannot open '" +
                               cfg_.jsonl_path + "' for writing");
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
  }
  thread_ = std::thread([this] { loop(); });
}

void TelemetrySampler::stop() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || joined_) return;
    stop_requested_ = true;
    joined_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void TelemetrySampler::loop() {
  const auto period = std::chrono::duration<double>(cfg_.period_s);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (cv_.wait_for(lock, period, [this] { return stop_requested_; })) {
        break;
      }
    }
    take_sample();
  }
  // Final sample on stop: the drained state always reaches disk.
  take_sample();
}

void TelemetrySampler::take_sample() {
  const TelemetrySample sample = produce_();
  if (!cfg_.jsonl_path.empty() && !sample.jsonl.empty()) {
    std::ofstream out{cfg_.jsonl_path, std::ios::app};
    if (out) out << sample.jsonl << "\n";
  }
  if (!cfg_.openmetrics_path.empty() && !sample.openmetrics.empty()) {
    // Write-then-rename: a scraper reading the exposition file never sees a
    // torn page. rename(2) is atomic within a filesystem.
    const std::string tmp = cfg_.openmetrics_path + ".tmp";
    {
      std::ofstream out{tmp, std::ios::trunc};
      if (!out) return;
      out << sample.openmetrics;
    }
    std::rename(tmp.c_str(), cfg_.openmetrics_path.c_str());
  }
  samples_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace ppgr::runtime
