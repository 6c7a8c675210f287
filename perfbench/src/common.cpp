#include "common.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>

namespace perfbench {

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = rank == 0 ? 0 : std::min(rank - 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

Summary summarize(std::vector<double>& v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  s.max = *std::max_element(v.begin(), v.end());
  s.p50 = quantile(v, 0.5);
  s.p90 = tail_resolved(s.n, 0.9) ? quantile(v, 0.9) : s.max;
  s.p99 = tail_resolved(s.n, 0.99) ? quantile(v, 0.99) : s.max;
  return s;
}

namespace {

std::size_t bucket_of(std::uint64_t v) noexcept {
  if (v < 256) return static_cast<std::size_t>(v);
  const int msb = 63 - __builtin_clzll(v);
  const int shift = msb - 7;  // >= 1
  const std::uint64_t sub = v >> shift;  // in [128, 255]
  return 256 + static_cast<std::size_t>(shift - 1) * 128 +
         static_cast<std::size_t>(sub - 128);
}

/// Lower bound and width of bucket `b`.
std::pair<double, double> bucket_range(std::size_t b) noexcept {
  if (b < 256) return {static_cast<double>(b), 1.0};
  const std::size_t shift = (b - 256) / 128 + 1;
  const std::size_t sub = (b - 256) % 128 + 128;
  const double width = std::ldexp(1.0, static_cast<int>(shift));
  return {static_cast<double>(sub) * width, width};
}

}  // namespace

void Histogram::add(std::int64_t ns) noexcept {
  const auto v = static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0));
  ++counts_[std::min(bucket_of(v), kBuckets - 1)];
  ++n_;
  sum_ += static_cast<double>(v);
  max_ = std::max(max_, static_cast<std::int64_t>(v));
}

void Histogram::merge(const Histogram& o) {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
  n_ += o.n_;
  sum_ += o.sum_;
  max_ = std::max(max_, o.max_);
}

double Histogram::quantile_ns(double q) const {
  if (n_ == 0) return 0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n_))));
  std::uint64_t before = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const std::uint64_t c = counts_[b];
    if (c == 0) continue;
    if (before + c >= rank) {
      const auto [lo, width] = bucket_range(b);
      const double frac = (static_cast<double>(rank - before) - 0.5) /
                          static_cast<double>(c);
      return std::min(lo + width * frac, static_cast<double>(max_));
    }
    before += c;
  }
  return static_cast<double>(max_);
}

double Histogram::mean_ns() const {
  return n_ > 0 ? sum_ / static_cast<double>(n_) : 0;
}

Summary Histogram::summary_us() const {
  Summary s;
  s.n = n_;
  s.max = static_cast<double>(max_) * 1e-3;
  s.p50 = quantile_ns(0.5) * 1e-3;
  s.p90 = tail_resolved(s.n, 0.9) ? quantile_ns(0.9) * 1e-3 : s.max;
  s.p99 = tail_resolved(s.n, 0.99) ? quantile_ns(0.99) * 1e-3 : s.max;
  return s;
}

void release_freed_memory() { malloc_trim(0); }

double peak_rss_mb() {
  // VmHWM belongs to this process image. getrusage's ru_maxrss is kept
  // across exec on Linux, so it would report the launcher's peak when that
  // was larger; it is only the fallback.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

std::vector<Span> SpanRing::kept() const {
  std::vector<Span> out;
  if (total_ < buf_.size()) {
    out.assign(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(next_));
  } else {
    out.assign(buf_.begin() + static_cast<std::ptrdiff_t>(next_), buf_.end());
    out.insert(out.end(), buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(next_));
  }
  return out;
}

void self_time_table(const SpanLog& log, Report& report) {
  const std::size_t n = log.spans.size();
  std::vector<std::vector<std::size_t>> children(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = log.spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < n) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  struct Row {
    std::uint64_t spans = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Row> rows;
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = log.spans[i];
    const std::int64_t dur = s.end_ns - s.start_ns;
    // Union of the children's intervals, clipped to this span.
    iv.clear();
    for (const auto c : children[i]) {
      const Span& k = log.spans[c];
      const auto a = std::max(k.start_ns, s.start_ns);
      const auto b = std::min(k.end_ns, s.end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_a = 0;
    std::int64_t cur_b = -1;
    for (const auto& [a, b] : iv) {
      if (cur_b < a) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    Row& r = rows[s.layer];
    ++r.spans;
    r.total_ms += static_cast<double>(dur) * 1e-6;
    r.self_ms += static_cast<double>(dur - covered) * 1e-6;
  }
  double all_self = 0;
  for (const auto& [layer, r] : rows) all_self += r.self_ms;
  char buf[160];
  report.lines.emplace_back("self time per layer (from the kept spans):");
  std::snprintf(buf, sizeof buf, "  %-10s %10s %14s %14s %8s", "layer",
                "spans", "total_ms", "self_ms", "self%");
  report.lines.emplace_back(buf);
  for (const auto& [layer, r] : rows) {
    std::snprintf(buf, sizeof buf, "  %-10s %10llu %14.3f %14.3f %7.1f%%",
                  layer.c_str(), static_cast<unsigned long long>(r.spans),
                  r.total_ms, r.self_ms,
                  all_self > 0 ? 100.0 * r.self_ms / all_self : 0.0);
    report.lines.emplace_back(buf);
  }
  std::snprintf(buf, sizeof buf, "  spans kept %zu, overwritten %llu", n,
                static_cast<unsigned long long>(log.dropped));
  report.lines.emplace_back(buf);
}

bool write_chrome_trace(const SpanLog& log, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  std::int64_t t0 = 0;
  bool first = true;
  for (const auto& s : log.spans) {
    if (first || s.start_ns < t0) t0 = s.start_ns;
    first = false;
  }
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  char buf[320];
  for (std::size_t i = 0; i < log.spans.size(); ++i) {
    const Span& s = log.spans[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"id\":%lld,\"parent\":%lld}}",
                  i == 0 ? "" : ",\n", s.name, s.layer, s.tid,
                  static_cast<double>(s.start_ns - t0) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                  static_cast<long long>(s.id),
                  static_cast<long long>(s.parent));
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
