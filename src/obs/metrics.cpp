#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "obs/json.hpp"
#include "util/sync.hpp"

namespace graphene::obs {

void Histogram::observe(std::uint64_t v) noexcept {
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  std::uint64_t cur = min_.load(std::memory_order_relaxed);
  while (v < cur && !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur && !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::min() const noexcept {
  const std::uint64_t v = min_.load(std::memory_order_relaxed);
  return v == UINT64_MAX ? 0 : v;
}

std::uint64_t Histogram::max() const noexcept {
  return max_.load(std::memory_order_relaxed);
}

double Histogram::mean() const noexcept {
  const std::uint64_t c = count();
  return c == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(c);
}

std::size_t Histogram::bucket_index(std::uint64_t v) noexcept {
  return v == 0 ? 0 : static_cast<std::size_t>(64 - std::countl_zero(v));
}

std::uint64_t Histogram::bucket_upper(std::size_t i) noexcept {
  if (i == 0) return 0;
  if (i >= 64) return UINT64_MAX;
  return (std::uint64_t{1} << i) - 1;
}

std::uint64_t Histogram::quantile(double q) const noexcept {
  const std::uint64_t total = count();
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank =
      static_cast<std::uint64_t>(q * static_cast<double>(total - 1)) + 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += bucket_count(i);
    if (seen >= rank) return std::min(bucket_upper(i), max());
  }
  return max();
}

Registry::Key Registry::make_key(std::string_view name, Labels labels) {
  std::sort(labels.begin(), labels.end());
  return Key{std::string(name), std::move(labels)};
}

Counter& Registry::counter(std::string_view name, const Labels& labels) {
  const util::MutexLock lock(mu_);
  auto& slot = counters_[make_key(name, labels)];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(std::string_view name, const Labels& labels) {
  const util::MutexLock lock(mu_);
  auto& slot = gauges_[make_key(name, labels)];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(std::string_view name, const Labels& labels) {
  const util::MutexLock lock(mu_);
  auto& slot = histograms_[make_key(name, labels)];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

const Counter* Registry::find_counter(std::string_view name, const Labels& labels) const {
  const util::MutexLock lock(mu_);
  const auto it = counters_.find(make_key(name, labels));
  return it == counters_.end() ? nullptr : it->second.get();
}

const Histogram* Registry::find_histogram(std::string_view name,
                                          const Labels& labels) const {
  const util::MutexLock lock(mu_);
  const auto it = histograms_.find(make_key(name, labels));
  return it == histograms_.end() ? nullptr : it->second.get();
}

namespace {

void write_key_header(json::Writer& w, const Registry* /*tag*/, const std::string& name,
                      const Labels& labels) {
  w.key("name");
  w.string(name);
  w.key("labels");
  w.begin_object();
  for (const auto& [k, v] : labels) {
    w.key(k);
    w.string(v);
  }
  w.end_object();
}

}  // namespace

std::string Registry::to_json() const {
  const util::MutexLock lock(mu_);
  json::Writer w;
  w.begin_object();

  w.key("counters");
  w.begin_array();
  for (const auto& [key, c] : counters_) {
    w.begin_object();
    write_key_header(w, this, key.name, key.labels);
    w.key("value");
    w.number(c->value());
    w.end_object();
  }
  w.end_array();

  w.key("gauges");
  w.begin_array();
  for (const auto& [key, g] : gauges_) {
    w.begin_object();
    write_key_header(w, this, key.name, key.labels);
    w.key("value");
    w.number(g->value());
    w.end_object();
  }
  w.end_array();

  w.key("histograms");
  w.begin_array();
  for (const auto& [key, h] : histograms_) {
    w.begin_object();
    write_key_header(w, this, key.name, key.labels);
    w.key("count");
    w.number(h->count());
    w.key("sum");
    w.number(h->sum());
    w.key("min");
    w.number(h->min());
    w.key("max");
    w.number(h->max());
    w.key("mean");
    w.number(h->mean());
    w.key("p50");
    w.number(h->quantile(0.50));
    w.key("p95");
    w.number(h->quantile(0.95));
    w.key("p99");
    w.number(h->quantile(0.99));
    w.key("buckets");
    w.begin_array();
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      const std::uint64_t n = h->bucket_count(i);
      if (n == 0) continue;
      w.begin_object();
      w.key("le");
      w.number(Histogram::bucket_upper(i));
      w.key("count");
      w.number(n);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.end_object();
  return w.take();
}

namespace {

// Prometheus metric names allow [a-zA-Z0-9_:]; anything else becomes '_'.
void prom_name_to(std::string& out, const std::string& name) {
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
}

// Label values escape backslash, double-quote, and newline per the text
// exposition format.
void prom_label_value_to(std::string& out, const std::string& v) {
  for (const char c : v) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
}

void prom_labels_to(std::string& out, const Labels& labels,
                    const char* extra_key = nullptr, const std::string* extra_value = nullptr) {
  if (labels.empty() && extra_key == nullptr) return;
  out.push_back('{');
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out.push_back(',');
    first = false;
    prom_name_to(out, k);
    out += "=\"";
    prom_label_value_to(out, v);
    out.push_back('"');
  }
  if (extra_key != nullptr) {
    if (!first) out.push_back(',');
    out += extra_key;
    out += "=\"";
    prom_label_value_to(out, *extra_value);
    out.push_back('"');
  }
  out.push_back('}');
}

void prom_number_to(std::string& out, double v) {
  json::number_to(out, v);  // integral-friendly formatting suits both formats
}

// Emits one `# TYPE` header per family name (the map is sorted by name, so
// equal names are adjacent).
void prom_type_header(std::string& out, std::string& last_name, const std::string& name,
                      const char* type) {
  if (name == last_name) return;
  last_name = name;
  out += "# TYPE ";
  prom_name_to(out, name);
  out.push_back(' ');
  out += type;
  out.push_back('\n');
}

}  // namespace

std::string Registry::to_prometheus() const {
  const util::MutexLock lock(mu_);
  std::string out;
  std::string last_name;

  for (const auto& [key, c] : counters_) {
    prom_type_header(out, last_name, key.name, "counter");
    prom_name_to(out, key.name);
    prom_labels_to(out, key.labels);
    out.push_back(' ');
    prom_number_to(out, static_cast<double>(c->value()));
    out.push_back('\n');
  }

  last_name.clear();
  for (const auto& [key, g] : gauges_) {
    prom_type_header(out, last_name, key.name, "gauge");
    prom_name_to(out, key.name);
    prom_labels_to(out, key.labels);
    out.push_back(' ');
    prom_number_to(out, g->value());
    out.push_back('\n');
  }

  last_name.clear();
  for (const auto& [key, h] : histograms_) {
    prom_type_header(out, last_name, key.name, "histogram");
    // Cumulative buckets; empty buckets elided except the mandatory +Inf.
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      const std::uint64_t n = h->bucket_count(i);
      if (n == 0) continue;
      cumulative += n;
      std::string le;
      json::number_to(le, static_cast<double>(Histogram::bucket_upper(i)));
      prom_name_to(out, key.name);
      out += "_bucket";
      prom_labels_to(out, key.labels, "le", &le);
      out.push_back(' ');
      prom_number_to(out, static_cast<double>(cumulative));
      out.push_back('\n');
    }
    const std::string inf = "+Inf";
    prom_name_to(out, key.name);
    out += "_bucket";
    prom_labels_to(out, key.labels, "le", &inf);
    out.push_back(' ');
    prom_number_to(out, static_cast<double>(h->count()));
    out.push_back('\n');
    prom_name_to(out, key.name);
    out += "_sum";
    prom_labels_to(out, key.labels);
    out.push_back(' ');
    prom_number_to(out, static_cast<double>(h->sum()));
    out.push_back('\n');
    prom_name_to(out, key.name);
    out += "_count";
    prom_labels_to(out, key.labels);
    out.push_back(' ');
    prom_number_to(out, static_cast<double>(h->count()));
    out.push_back('\n');
  }

  return out;
}

}  // namespace graphene::obs
