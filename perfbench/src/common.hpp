// Shared pieces of the repository benchmark: clocks, sample summaries,
// the metric report every workload prints, and the in-memory span recorder
// of the traced run.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Monotonic wall-clock nanoseconds.
inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t t0_ns) noexcept {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

/// Returns freed heap memory to the kernel before a timed build or
/// verdict, so each one first-touches its memory the way a fresh process
/// does. Without it, whether the allocator happened to trim the heap after
/// the previous repetition decides the time (0.5 vs 0.9 ms for one
/// make_rb_bundle(16, 8)).
void release_freed_memory();

/// Worker threads every workload runs with: half of the 4 hardware
/// threads the benchmark is recorded on. With one worker per hardware
/// thread, any other runnable process preempts a spinning barrier thread
/// and the episode waits out its time slice: one busy process in the same
/// VM moved the 4-thread shm_bsp episode p50 from 0.76 to 4.9 us, while at
/// 2 threads two busy processes left it within 1 %.
inline constexpr int kThreads = 2;

/// What the command line gives a workload.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  ///< where the traced run writes its Chrome trace
  std::string workload;
};

/// Median and tail percentiles of a sample set. A tail percentile is only
/// reported when at least ten samples lie beyond it (n >= 100 for p90,
/// n >= 1000 for p99); with fewer samples the maximum stands in.
struct Summary {
  std::size_t n = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  double max = 0;
};

/// True when at least ten of `n` samples lie beyond the q-quantile.
inline bool tail_resolved(std::size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0;
}

/// Summarizes `v` (reorders it).
Summary summarize(std::vector<double>& v);

/// Log-linear histogram of nanosecond durations: exact below 256 ns, 128
/// sub-buckets per power of two above (under 0.8% bucket width), so memory
/// stays fixed however many episodes a run commits. Quantiles interpolate
/// linearly inside the bucket by rank.
class Histogram {
 public:
  Histogram() : counts_(kBuckets, 0) {}
  void add(std::int64_t ns) noexcept;
  void merge(const Histogram& o);
  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  /// q-quantile in nanoseconds; 0 if empty.
  [[nodiscard]] double quantile_ns(double q) const;
  /// Exact mean in nanoseconds of every sample; 0 if empty.
  [[nodiscard]] double mean_ns() const;
  /// Summary in microseconds.
  [[nodiscard]] Summary summary_us() const;

 private:
  static constexpr std::size_t kBuckets = 256 + 56 * 128;
  std::vector<std::uint64_t> counts_;
  std::uint64_t n_ = 0;
  double sum_ = 0;
  std::int64_t max_ = 0;
};

/// The q-quantile (0..1) of `v` by nearest rank (reorders it); 0 if empty.
double quantile(std::vector<double>& v, double q);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< sample count or provenance, human output only
};

/// Everything one workload run reports.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> lines;  ///< extra human-readable lines
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions

  void e2e(std::string name, double value, std::string unit,
           std::string note = {}) {
    end_to_end.push_back({std::move(name), value, std::move(unit),
                          std::move(note)});
  }
  void layer(std::string name, double value, std::string unit,
             std::string note = {}) {
    per_layer.push_back({std::move(name), value, std::move(unit),
                         std::move(note)});
  }
  /// Counts one checked operation; `ok == false` records a failure.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 8) failures.push_back(what);
    }
  }
};

/// Peak resident set of this process image in MB.
double peak_rss_mb();

// ---- traced run --------------------------------------------------------

/// One recorded span. `id` groups the spans of one episode or verdict;
/// `parent` indexes the enclosing span in the same SpanLog (-1 = none).
struct Span {
  const char* name = "";
  const char* layer = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t id = -1;
  std::int64_t parent = -1;
  int tid = 0;
};

/// Per-thread span buffer with a fixed capacity: once full, the oldest
/// spans are overwritten so every traced call pays the same recording
/// cost; `dropped` counts what was overwritten.
class SpanRing {
 public:
  explicit SpanRing(std::size_t capacity = 0) { reset(capacity); }
  void reset(std::size_t capacity) {
    buf_.assign(capacity, Span{});
    next_ = 0;
    total_ = 0;
  }
  void push(const Span& s) noexcept {
    if (buf_.empty()) return;
    buf_[next_] = s;
    next_ = next_ + 1 == buf_.size() ? 0 : next_ + 1;
    ++total_;
  }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  /// The kept spans, oldest first.
  [[nodiscard]] std::vector<Span> kept() const;

 private:
  std::vector<Span> buf_;
  std::size_t next_ = 0;
  std::uint64_t total_ = 0;
};

/// The spans of a traced run, written once at the end.
struct SpanLog {
  std::vector<Span> spans;
  std::uint64_t dropped = 0;

  std::int64_t add(const Span& s) {
    spans.push_back(s);
    return static_cast<std::int64_t>(spans.size()) - 1;
  }
};

/// Per-layer self time: each span's duration minus the part of its
/// interval covered by its children (by parent index), summed per layer.
/// Prints the table into the report's human-readable lines.
void self_time_table(const SpanLog& log, Report& report);

/// Writes the spans as Chrome trace_event JSON (opens in Perfetto).
/// Returns false if the file cannot be written.
bool write_chrome_trace(const SpanLog& log, const std::string& path);

/// Median of a small vector (copy).
inline double median_of(std::vector<double> v) { return quantile(v, 0.5); }

}  // namespace perfbench
