// Unified metrics: typed counters/gauges and log-linear (HDR-style)
// histograms behind one registry with stable JSON and Prometheus dumps.
//
// Recording is wait-free relaxed atomics — a histogram Record is one
// bucket fetch_add plus count/sum/min/max updates, safe from any thread
// with no lock and no sampling window, so percentiles never drop
// samples under load. Histograms are value-exact below 2^(kSubBits+1) and keep
// <= 1/32 relative bucket width above it, and merge losslessly
// (bucket-wise adds), so per-shard or per-phase histograms can be
// combined without re-recording.
//
// Naming convention: lower-case dotted paths, coarse-to-fine —
// "<subsystem>.<object>.<measure>[_<unit>]" (e.g. "serve.latency_us",
// "governor.admit_denials"). Units ride in the name suffix; histograms
// here are unit-agnostic integer streams.
//
// Thread-safety: metric objects are fully concurrent. The registry maps
// names to stable pointers under a mutex — call Get* once at setup and
// keep the pointer; the hot path never touches the map.

#ifndef CTSDD_OBS_METRICS_H_
#define CTSDD_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ctsdd::obs {

class Counter {
 public:
  void Add(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  // Snapshot-style overwrite, for folding an externally maintained
  // monotone counter into the registry at snapshot time.
  void Set(uint64_t value) { value_.store(value, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Log-linear histogram over uint64 values. Buckets: values below
// 2^(kSubBits+1) map to themselves (exact); above, each power-of-two
// range splits into 2^kSubBits linear sub-buckets, so the relative
// bucket width is bounded by 2^-kSubBits everywhere.
class Histogram {
 public:
  static constexpr int kSubBits = 5;
  static constexpr uint64_t kSubCount = uint64_t{1} << kSubBits;
  // Bit-widths 1..64: widths <= kSubBits+1 share the exact linear range
  // (2 * kSubCount entries), and each of the 64 - (kSubBits+1) wider
  // widths contributes one kSubCount block — 1920 buckets at kSubBits=5.
  static constexpr size_t kBucketCount =
      static_cast<size_t>((64 - kSubBits + 1) * kSubCount);

  static size_t BucketIndex(uint64_t value) {
    const int width = 64 - __builtin_clzll(value | 1);
    if (width <= kSubBits + 1) return static_cast<size_t>(value);
    const int shift = width - (kSubBits + 1);
    return static_cast<size_t>(
        (static_cast<uint64_t>(shift + 1) << kSubBits) +
        ((value >> shift) - kSubCount));
  }

  // Representative (midpoint) value of a bucket; exact below the
  // log-linear threshold.
  static uint64_t BucketValue(size_t index) {
    if (index < 2 * kSubCount) return static_cast<uint64_t>(index);
    const int shift = static_cast<int>(index >> kSubBits) - 1;
    const uint64_t lower = (kSubCount + (index & (kSubCount - 1))) << shift;
    return lower + ((uint64_t{1} << shift) >> 1);
  }

  // Largest value mapped to a bucket (inclusive). Fine buckets tile
  // each [2^w, 2^(w+1)) block exactly, so no bucket straddles a
  // power-of-two boundary — the property the Prometheus exposition
  // leans on to coarsen 1920 fine buckets into exact cumulative
  // power-of-two `le` buckets.
  static uint64_t BucketUpperBound(size_t index) {
    if (index < 2 * kSubCount) return static_cast<uint64_t>(index);
    const int shift = static_cast<int>(index >> kSubBits) - 1;
    const uint64_t lower = (kSubCount + (index & (kSubCount - 1))) << shift;
    return lower + ((uint64_t{1} << shift) - 1);
  }

  void Record(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t seen = min_.load(std::memory_order_relaxed);
    while (value < seen &&
           !min_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
    seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  // Lossless bucket-wise merge of `other` into this histogram.
  void Merge(const Histogram& other) {
    for (size_t i = 0; i < kBucketCount; ++i) {
      const uint64_t n = other.buckets_[i].load(std::memory_order_relaxed);
      if (n != 0) buckets_[i].fetch_add(n, std::memory_order_relaxed);
    }
    count_.fetch_add(other.count(), std::memory_order_relaxed);
    sum_.fetch_add(other.sum(), std::memory_order_relaxed);
    const uint64_t omin = other.min_.load(std::memory_order_relaxed);
    uint64_t seen = min_.load(std::memory_order_relaxed);
    while (omin < seen &&
           !min_.compare_exchange_weak(seen, omin,
                                       std::memory_order_relaxed)) {
    }
    const uint64_t omax = other.max_.load(std::memory_order_relaxed);
    seen = max_.load(std::memory_order_relaxed);
    while (omax > seen &&
           !max_.compare_exchange_weak(seen, omax,
                                       std::memory_order_relaxed)) {
    }
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t min() const {
    const uint64_t v = min_.load(std::memory_order_relaxed);
    return v == UINT64_MAX ? 0 : v;
  }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t index) const {
    return buckets_[index].load(std::memory_order_relaxed);
  }

  // p in [0, 1]; the representative value at the oracle rank
  // min(n-1, round(p * (n-1))). 0 when empty.
  uint64_t ValueAtPercentile(double p) const;

 private:
  std::atomic<uint64_t> buckets_[kBucketCount] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Stable pointers (valid for the registry's lifetime); registering the
  // same name twice returns the same object. A name registered as one
  // kind must not be re-requested as another (checked). `help` becomes
  // the Prometheus HELP line; the first non-empty help for a name wins.
  Counter* GetCounter(const std::string& name, const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const std::string& help = "");
  Histogram* GetHistogram(const std::string& name,
                          const std::string& help = "");

  // Flat JSON object, keys sorted: scalars as integers, histograms as
  // {"count","sum","min","max","p50","p90","p99","p999"}.
  std::string JsonSnapshot() const;

  // Prometheus text exposition, conformant: every metric gets HELP and
  // TYPE lines (dots become underscores); histograms export cumulative
  // `_bucket{le=...}` series on exact power-of-two boundaries plus
  // `_sum`/`_count`, with the `le="+Inf"` bucket and `_count` computed
  // from the same bucket snapshot so they always agree under concurrent
  // recording.
  std::string PrometheusText() const;

 private:
  struct Entry {
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

}  // namespace ctsdd::obs

#endif  // CTSDD_OBS_METRICS_H_
