#include "harness.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <limits>
#include <map>
#include <unordered_map>

namespace perfbench {

Pool::Pool(int num_threads)
    : start_(num_threads + 1),
      done_(num_threads + 1),
      errors_(static_cast<std::size_t>(num_threads)) {
  threads_.reserve(static_cast<std::size_t>(num_threads));
  for (int tid = 0; tid < num_threads; ++tid) {
    threads_.emplace_back([this, tid] { worker(tid); });
  }
  // No round trip to wait for the workers: when the host first runs a
  // new thread's vCPU is the host's latency, not the program's (0.2 ms
  // idle, several ms under load), and set-up would measure it. The first
  // run() absorbs it, before any timed episode.
}

Pool::~Pool() {
  stop_ = true;
  start_.arrive_and_wait();
  for (auto& t : threads_) t.join();
}

void Pool::worker(int tid) {
  for (;;) {
    start_.arrive_and_wait();
    if (stop_) return;
    try {
      (*fn_)(tid);
    } catch (const std::exception& e) {
      errors_[static_cast<std::size_t>(tid)] = e.what();
    } catch (...) {
      errors_[static_cast<std::size_t>(tid)] = "unknown exception";
    }
    done_.arrive_and_wait();
  }
}

std::vector<std::string> Pool::run(const std::function<void(int)>& fn) {
  fn_ = &fn;
  start_.arrive_and_wait();
  done_.arrive_and_wait();
  std::vector<std::string> out;
  for (auto& e : errors_) {
    if (!e.empty()) out.push_back(std::move(e));
    e.clear();
  }
  return out;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                  std::uint64_t d) {
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  for (const std::uint64_t v : {a, b, c, d}) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    h ^= h >> 31;
  }
  return h;
}

void EpisodeSamples::append(const EpisodeSamples& o) {
  latency.merge(o.latency);
  commit.merge(o.commit);
  spread.merge(o.spread);
  skew.merge(o.skew);
  period.merge(o.period);
  episodes += o.episodes;
}

std::size_t analyze_segment(const std::vector<CallLog>& logs,
                            EpisodeSamples& out, Report& report,
                            const std::string& what) {
  std::size_t n = std::numeric_limits<std::size_t>::max();
  for (const auto& log : logs) n = std::min(n, log.end_ns.size());
  if (logs.empty()) n = 0;
  for (const auto& log : logs) {
    report.check(log.end_ns.size() == n,
                 what + ": threads committed different episode counts");
  }
  std::size_t bad = 0;
  std::int64_t prev_end = 0;
  for (std::size_t k = 0; k < n; ++k) {
    std::int64_t max_start = std::numeric_limits<std::int64_t>::min();
    std::int64_t min_start = std::numeric_limits<std::int64_t>::max();
    std::int64_t max_end = max_start;
    std::int64_t min_end = min_start;
    std::size_t last = 0;
    for (std::size_t t = 0; t < logs.size(); ++t) {
      const auto s = logs[t].start_ns[k];
      const auto e = logs[t].end_ns[k];
      if (s > max_start) {
        max_start = s;
        last = t;
      }
      min_start = std::min(min_start, s);
      max_end = std::max(max_end, e);
      min_end = std::min(min_end, e);
    }
    if (!episode_ordered(logs, k)) ++bad;
    out.latency.add(max_end - max_start);
    out.commit.add(logs[last].end_ns[k] - logs[last].start_ns[k]);
    out.spread.add(max_end - min_end);
    out.skew.add(max_start - min_start);
    if (k > 0) out.period.add(max_end - prev_end);
    prev_end = max_end;
  }
  // One check per episode: the contract is per episode.
  report.attempted += n;
  if (bad > 0) {
    report.failed += bad;
    if (report.failures.size() < 8) {
      report.failures.push_back(what + ": " + std::to_string(bad) +
                                " episodes returned before the last arrival");
    }
  }
  out.episodes += n;
  return n;
}

Span segment_span(const std::vector<std::int64_t>& begin,
                  const std::vector<CallLog>& logs, const char* name,
                  std::uint64_t segment) {
  std::int64_t b = begin.empty() ? 0 : begin[0];
  std::int64_t e = 0;
  for (const auto t : begin) b = std::min(b, t);
  for (const auto& log : logs) {
    if (!log.end_ns.empty()) e = std::max(e, log.end_ns.back());
  }
  return Span{name, "bench", b, e, static_cast<std::int64_t>(segment), -1, 100};
}

void build_span_log(const std::vector<Span>& segments,
                    const std::vector<SpanRing>& rings, SpanLog& log) {
  std::vector<Span> kept;
  for (const auto& ring : rings) {
    const auto k = ring.kept();
    kept.insert(kept.end(), k.begin(), k.end());
    log.dropped += ring.total() - k.size();
  }
  std::unordered_map<std::int64_t, std::int64_t> first_child;
  struct Group {
    std::int64_t start = std::numeric_limits<std::int64_t>::max();
    std::int64_t end = std::numeric_limits<std::int64_t>::min();
  };
  std::map<std::int64_t, Group> episodes;
  for (const Span& s : kept) {
    const auto seg = s.id >> 32;
    const auto it = first_child.find(seg);
    if (it == first_child.end() || s.start_ns < it->second) {
      first_child[seg] = s.start_ns;
    }
    if (std::strcmp(s.layer, "app") != 0) {
      Group& g = episodes[s.id];
      g.start = std::min(g.start, s.start_ns);
      g.end = std::max(g.end, s.end_ns);
    }
  }
  std::unordered_map<std::int64_t, std::int64_t> seg_index;
  for (Span seg : segments) {
    const auto it = first_child.find(seg.id);
    if (it == first_child.end()) continue;
    seg.start_ns = std::max(seg.start_ns, it->second);
    seg_index[seg.id] = log.add(seg);
  }
  const auto parent_of_segment = [&](std::int64_t id) -> std::int64_t {
    const auto it = seg_index.find(id >> 32);
    return it == seg_index.end() ? -1 : it->second;
  };
  std::unordered_map<std::int64_t, std::int64_t> ep_index;
  for (const auto& [id, g] : episodes) {
    ep_index[id] = log.add(Span{"episode", "bench", g.start, g.end, id,
                                parent_of_segment(id),
                                101 + static_cast<int>(id & 1)});
  }
  for (Span s : kept) {
    s.parent = parent_of_segment(s.id);
    if (std::strcmp(s.layer, "app") != 0) s.parent = ep_index.at(s.id);
    log.add(s);
  }
}

}  // namespace perfbench
