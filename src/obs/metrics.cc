#include "src/obs/metrics.h"

#include <algorithm>
#include <bit>
#include <charconv>

#include "src/util/strings.h"

namespace anduril::obs {

int HistogramBucketOf(int64_t value) {
  if (value <= 0) {
    return 0;
  }
  return std::bit_width(static_cast<uint64_t>(value));
}

void MetricsRegistry::Add(const std::string& name, int64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += delta;
}

void MetricsRegistry::Set(const std::string& name, int64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] = value;
}

void MetricsRegistry::Observe(const std::string& name, int64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  Histogram& histogram = histograms_[name];
  ++histogram.count;
  histogram.sum += value;
  ++histogram.buckets[static_cast<size_t>(HistogramBucketOf(value))];
}

int64_t MetricsRegistry::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

int64_t MetricsRegistry::gauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second;
}

MetricsSnapshot::Histogram MetricsRegistry::histogram(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot::Histogram out;
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    return out;
  }
  out.count = it->second.count;
  out.sum = it->second.sum;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    if (it->second.buckets[static_cast<size_t>(b)] != 0) {
      out.buckets.emplace_back(b, it->second.buckets[static_cast<size_t>(b)]);
    }
  }
  return out;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  for (const auto& [name, value] : counters_) {
    snapshot.counters.emplace_back(name, value);
  }
  for (const auto& [name, value] : gauges_) {
    snapshot.gauges.emplace_back(name, value);
  }
  for (const auto& [name, histogram] : histograms_) {
    MetricsSnapshot::Histogram out;
    out.count = histogram.count;
    out.sum = histogram.sum;
    for (int b = 0; b < kHistogramBuckets; ++b) {
      if (histogram.buckets[static_cast<size_t>(b)] != 0) {
        out.buckets.emplace_back(b, histogram.buckets[static_cast<size_t>(b)]);
      }
    }
    snapshot.histograms.emplace_back(name, std::move(out));
  }
  return snapshot;
}

void MetricsRegistry::Restore(const MetricsSnapshot& snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  for (const auto& [name, value] : snapshot.counters) {
    counters_[name] = value;
  }
  for (const auto& [name, value] : snapshot.gauges) {
    gauges_[name] = value;
  }
  for (const auto& [name, in] : snapshot.histograms) {
    Histogram histogram;
    histogram.count = in.count;
    histogram.sum = in.sum;
    for (const auto& [bucket, count] : in.buckets) {
      if (bucket >= 0 && bucket < kHistogramBuckets) {
        histogram.buckets[static_cast<size_t>(bucket)] = count;
      }
    }
    histograms_[name] = histogram;
  }
}

void MetricsRegistry::Merge(const MetricsSnapshot& other) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, value] : other.counters) {
    counters_[name] += value;
  }
  for (const auto& [name, value] : other.gauges) {
    auto it = gauges_.find(name);
    if (it == gauges_.end()) {
      gauges_[name] = value;
    } else {
      it->second = std::max(it->second, value);
    }
  }
  for (const auto& [name, in] : other.histograms) {
    Histogram& histogram = histograms_[name];
    histogram.count += in.count;
    histogram.sum += in.sum;
    for (const auto& [bucket, count] : in.buckets) {
      if (bucket >= 0 && bucket < kHistogramBuckets) {
        histogram.buckets[static_cast<size_t>(bucket)] += count;
      }
    }
  }
}

void MetricsRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

JsonValue MetricsSnapshotToJson(const MetricsSnapshot& snapshot) {
  JsonValue root = JsonValue::Object();
  JsonValue counters = JsonValue::Object();
  for (const auto& [name, value] : snapshot.counters) {
    counters.Set(name, JsonValue::Int(value));
  }
  root.Set("counters", std::move(counters));
  JsonValue gauges = JsonValue::Object();
  for (const auto& [name, value] : snapshot.gauges) {
    gauges.Set(name, JsonValue::Int(value));
  }
  root.Set("gauges", std::move(gauges));
  JsonValue histograms = JsonValue::Object();
  for (const auto& [name, histogram] : snapshot.histograms) {
    JsonValue entry = JsonValue::Object();
    entry.Set("count", JsonValue::Int(histogram.count));
    entry.Set("sum", JsonValue::Int(histogram.sum));
    JsonValue buckets = JsonValue::Object();
    for (const auto& [bucket, count] : histogram.buckets) {
      buckets.Set(std::to_string(bucket), JsonValue::Int(count));
    }
    entry.Set("buckets", std::move(buckets));
    histograms.Set(name, std::move(entry));
  }
  root.Set("histograms", std::move(histograms));
  return root;
}

bool MetricsSnapshotFromJson(const JsonValue& value, MetricsSnapshot* out, std::string* error) {
  return MetricsSnapshotFromJson(JsonReader(value, "metrics", error), out);
}

bool MetricsSnapshotFromJson(JsonReader in, MetricsSnapshot* out) {
  MetricsSnapshot snapshot;
  JsonReader counters = in.Object("counters");
  for (size_t i = 0; i < counters.size(); ++i) {
    snapshot.counters.emplace_back(counters.Name(i), counters.Int64(i));
  }
  JsonReader gauges = in.Object("gauges");
  for (size_t i = 0; i < gauges.size(); ++i) {
    snapshot.gauges.emplace_back(gauges.Name(i), gauges.Int64(i));
  }
  JsonReader histograms = in.Object("histograms");
  for (size_t i = 0; i < histograms.size(); ++i) {
    JsonReader entry = histograms.Object(i);
    MetricsSnapshot::Histogram histogram;
    histogram.count = entry.Int64("count");
    histogram.sum = entry.Int64("sum");
    JsonReader buckets = entry.Object("buckets");
    for (size_t b = 0; b < buckets.size(); ++b) {
      const std::string& key = buckets.Name(b);
      int bucket = -1;
      auto [end, ec] = std::from_chars(key.data(), key.data() + key.size(), bucket);
      if (ec != std::errc() || end != key.data() + key.size() || bucket < 0 ||
          bucket >= kHistogramBuckets) {
        buckets.Fail(StrFormat("bucket \"%s\" is not an integer in [0, %d)", key.c_str(),
                               kHistogramBuckets));
      }
      histogram.buckets.emplace_back(bucket, buckets.Int64(b));
    }
    snapshot.histograms.emplace_back(histograms.Name(i), std::move(histogram));
  }
  if (!in.ok()) {
    return false;
  }
  *out = std::move(snapshot);
  return true;
}

std::string MetricsRegistry::DumpJson() const {
  MetricsSnapshot snapshot = Snapshot();
  JsonValue body = MetricsSnapshotToJson(snapshot);
  JsonValue root = JsonValue::Object();
  root.Set("anduril_metrics", JsonValue::Int(kMetricsFormatVersion));
  for (auto& [key, value] : body.members()) {
    root.Set(key, value);
  }
  return root.Dump();
}

bool ParseMetricsJson(const std::string& text, MetricsSnapshot* out, std::string* error) {
  std::string parse_error;
  JsonValue root = JsonValue::Parse(text, &parse_error);
  if (!parse_error.empty()) {
    *error = "metrics parse error: " + parse_error;
    return false;
  }
  if (root.type() != JsonValue::Type::kObject) {
    *error = "metrics file is not a JSON object";
    return false;
  }
  JsonReader in(root, "metrics", error);
  if (!in.Has("anduril_metrics")) {
    *error = "metrics file has no anduril_metrics version field";
    return false;
  }
  const int64_t version = in.Int64("anduril_metrics");
  if (!in.ok()) {
    return false;
  }
  if (version != kMetricsFormatVersion) {
    *error = StrFormat("unsupported metrics version %lld (this build reads only version %d)",
                       static_cast<long long>(version), kMetricsFormatVersion);
    return false;
  }
  return MetricsSnapshotFromJson(in, out);
}

}  // namespace anduril::obs
