// Closed-loop barrier harness shared by the shm_bsp and mp_* workloads:
// a persistent worker pool created at set-up, seeded busy-work grains, and
// the per-episode analysis of what the workers timestamped.
#pragma once

#include <barrier>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "common.hpp"

namespace perfbench {

/// Persistent worker threads. run() hands every worker the same function
/// and returns when all of them have returned from it; nothing is spawned
/// or joined while a segment is being measured.
class Pool {
 public:
  explicit Pool(int num_threads);
  ~Pool();
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Runs fn(tid) on every worker. Exceptions thrown by fn are caught on
  /// the worker and returned here as failure descriptions.
  std::vector<std::string> run(const std::function<void(int)>& fn);

 private:
  void worker(int tid);

  std::barrier<> start_;
  std::barrier<> done_;
  const std::function<void(int)>* fn_ = nullptr;
  bool stop_ = false;
  std::vector<std::string> errors_;  ///< one slot per worker
  std::vector<std::thread> threads_;
};

/// 64-bit mix of several values (splitmix64 finalizer chain).
std::uint64_t mix(std::uint64_t a, std::uint64_t b = 0, std::uint64_t c = 0,
                  std::uint64_t d = 0);

/// Seeded busy-work grain in [0, 5000] ns.
inline std::int64_t grain_ns(std::uint64_t seed, std::uint64_t segment,
                             int tid, std::uint64_t k) {
  return static_cast<std::int64_t>(
      mix(seed, segment, static_cast<std::uint64_t>(tid), k) % 5001);
}

/// Spins for `ns` nanoseconds of wall time.
inline void busy_work(std::int64_t ns) {
  const std::int64_t until = now_ns() + ns;
  while (now_ns() < until) {
  }
}

/// Per-episode timings of a set of segments.
struct EpisodeSamples {
  Histogram latency;  ///< latest return - latest start (the critical path)
  Histogram commit;   ///< the last arriver's call duration
  Histogram spread;   ///< latest return - earliest return
  Histogram skew;     ///< latest start - earliest start
  Histogram period;   ///< latest return of k - latest return of k-1
  std::uint64_t episodes = 0;

  void append(const EpisodeSamples& o);
  /// Committed phases per second: one over the mean of every commit
  /// interval, the slow ones included.
  [[nodiscard]] double phases_per_s() const {
    const double ns = period.mean_ns();
    return ns > 0 ? 1e9 / ns : 0;
  }
};

/// Analyzes one segment's logs: appends one sample per episode to `out`
/// and checks the barrier contract of every episode into `report`
/// (tagging failures with `what`). Returns the number of episodes.
std::size_t analyze_segment(const std::vector<CallLog>& logs,
                            EpisodeSamples& out, Report& report,
                            const std::string& what);

/// The span of one segment: earliest thread begin to latest return.
Span segment_span(const std::vector<std::int64_t>& begin,
                  const std::vector<CallLog>& logs, const char* name,
                  std::uint64_t segment);

/// Span id of episode k of segment `segment`: spans of one episode share
/// it, and the segment is recoverable as id >> 32.
inline std::int64_t episode_id(std::uint64_t segment, std::size_t k) {
  return static_cast<std::int64_t>((segment << 32) | k);
}

/// Builds the traced run's span tree from the thread spans kept in
/// `rings`: one episode span per id (earliest start to latest end of its
/// calls) under the span of its segment (from `segments`, whose id is the
/// segment number; clipped to the kept window, dropped when nothing of it
/// was kept), each call under its episode and each work grain under its
/// segment.
void build_span_log(const std::vector<Span>& segments,
                    const std::vector<SpanRing>& rings, SpanLog& log);

}  // namespace perfbench
