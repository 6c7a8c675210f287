// shm_bsp and shm_degraded: a BSP loop of real-thread barriers on shared
// memory.
//
// shm_bsp runs, every round, one fixed segment of each of the
// fault-tolerant CentralHwBarrier and TreeHwBarrier (arity 2), then the
// fault-intolerant baseline::CentralBarrier and baseline::TreeBarrier as
// references. shm_degraded runs the same two hwbar barriers built with one
// extra slot that is retired up front, so every commit goes through the
// scan path: the cost a barrier pays after losing a member. Each thread
// spins a seeded 0-5 us work grain before every arrival.
//
// The end-to-end episode latency is the geometric mean of the two hwbar
// barriers' episode p50s: pooling the two would put the median in the gap
// between their modes, where it swings with the smallest change in either
// tail. The baselines only feed the per-layer ratios. The per-layer tail
// and rate are medians over rounds of each round's p99 and plain rate, so
// they keep every slow episode of a round yet do not hang on the one round
// another process disturbed. One rig (the barriers and the worker pool)
// serves every round; set-up is sampled by timing whole rig builds before
// the first round and between rounds.
#include <cmath>
#include <functional>
#include <memory>

#include "baseline/central_barrier.hpp"
#include "baseline/tree_barrier.hpp"
#include "harness.hpp"
#include "hwbar/central.hpp"
#include "hwbar/tree.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace baseline = ftbar::baseline;
namespace hwbar = ftbar::hwbar;

constexpr std::size_t kSegmentEpisodes = 4096;
// Spans kept per (barrier kind, thread): the last 2048 episodes of each.
constexpr std::size_t kRingSpans = 4096;

enum Kind { kCentral, kTree, kBaseCentral, kBaseTree, kKinds };
constexpr int kHwKinds = 2;  ///< kCentral and kTree are the hwbar barriers
/// [degraded][kind]
constexpr const char* kKindName[2][kKinds] = {
    {"hwbar.central", "hwbar.tree", "baseline.central", "baseline.tree"},
    {"hwbar.degraded_central", "hwbar.degraded_tree", "", ""}};
constexpr const char* kSegmentName[2][kKinds] = {
    {"segment.hwbar.central", "segment.hwbar.tree",
     "segment.baseline.central", "segment.baseline.tree"},
    {"segment.hwbar.degraded_central", "segment.hwbar.degraded_tree", "",
     ""}};

hwbar::Options hw_options() {
  hwbar::Options o;
  // Far above any scheduler stall, so the detector never declares a death
  // in this fault-free loop (a declared death is counted as an error).
  o.suspect_after = std::chrono::minutes(10);
  return o;
}

/// The barriers and the worker pool; the baselines only when healthy.
struct Rig {
  Rig(const hwbar::Options& o, bool degraded) {
    const int slots = degraded ? kThreads + 1 : kThreads;
    central = std::make_unique<hwbar::CentralHwBarrier>(slots, o);
    tree = std::make_unique<hwbar::TreeHwBarrier>(slots, o, 2);
    if (degraded) {
      central->retire(kThreads);
      tree->retire(kThreads);
    } else {
      b_central = std::make_unique<baseline::CentralBarrier>(kThreads);
      b_tree = std::make_unique<baseline::TreeBarrier>(kThreads);
    }
  }

  std::unique_ptr<hwbar::HwBarrier> central;
  std::unique_ptr<hwbar::HwBarrier> tree;
  std::unique_ptr<baseline::CentralBarrier> b_central;
  std::unique_ptr<baseline::TreeBarrier> b_tree;
  Pool pool{kThreads};  // last: joined before the barriers go away
};

/// What the workers record.
struct Records {
  Records() : logs(kThreads), begin(kThreads, 0), bad_status(kThreads, 0) {
    for (auto& l : logs) l.reserve(kSegmentEpisodes);
  }
  std::vector<CallLog> logs;
  std::vector<std::int64_t> begin;
  std::vector<std::uint64_t> bad_status;
  std::vector<SpanRing> rings;  ///< [kind * kThreads + tid], traced run only
};

/// One thread's segment: grain, timed arrival, repeat.
template <class Arrive>
void segment_loop(Records& rec, int kind, int tid, std::uint64_t seed,
                  std::uint64_t serial, bool traced, const char* call,
                  const char* layer, Arrive&& arrive) {
  CallLog& log = rec.logs[static_cast<std::size_t>(tid)];
  log.clear();
  rec.begin[static_cast<std::size_t>(tid)] = now_ns();
  for (std::size_t k = 0; k < kSegmentEpisodes; ++k) {
    const std::int64_t w0 = now_ns();
    busy_work(grain_ns(seed, serial, tid, k));
    const std::int64_t t0 = now_ns();
    const std::int32_t phase = arrive(k);
    const std::int64_t t1 = now_ns();
    log.start_ns.push_back(t0);
    log.end_ns.push_back(t1);
    log.phase.push_back(phase);
    if (traced) {
      SpanRing& ring =
          rec.rings[static_cast<std::size_t>(kind * kThreads + tid)];
      const auto id = episode_id(serial, k);
      ring.push(Span{"app.work", "app", w0, t0, id, -1, tid});
      ring.push(Span{call, layer, t0, t1, id, -1, tid});
    }
  }
}

void run_kind(Rig& rig, Records& rec, int kind, int tid, std::uint64_t seed,
              std::uint64_t serial, bool traced) {
  const auto hw = [&](hwbar::HwBarrier& bar) {
    segment_loop(rec, kind, tid, seed, serial, traced,
                 "hwbar.arrive_and_wait", "hwbar", [&](std::size_t) {
                   const auto t = bar.arrive_and_wait(tid);
                   if (t.status != hwbar::ArriveStatus::kReleased) {
                     ++rec.bad_status[static_cast<std::size_t>(tid)];
                   }
                   return static_cast<std::int32_t>(t.episode);
                 });
  };
  switch (kind) {
    case kCentral:
      hw(*rig.central);
      break;
    case kTree:
      hw(*rig.tree);
      break;
    case kBaseCentral:
      segment_loop(rec, kind, tid, seed, serial, traced,
                   "baseline.arrive_and_wait", "baseline", [&](std::size_t k) {
                     rig.b_central->arrive_and_wait();
                     return static_cast<std::int32_t>(k);
                   });
      break;
    default:
      segment_loop(rec, kind, tid, seed, serial, traced,
                   "baseline.arrive_and_wait", "baseline", [&](std::size_t k) {
                     rig.b_tree->arrive_and_wait(tid);
                     return static_cast<std::int32_t>(k);
                   });
      break;
  }
}

double share(std::uint64_t part, std::uint64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                   : 0;
}

}  // namespace

Report run_shm_bsp(const RunConfig& cfg, bool degraded) {
  Report rep;
  const auto opt = hw_options();
  const int kinds = degraded ? kHwKinds : kKinds;
  const auto* const kind_name = kKindName[degraded ? 1 : 0];
  Records rec;
  if (cfg.trace) rec.rings.assign(kThreads * kKinds, SpanRing(kRingSpans));

  // Set-up is sampled once before the first round and once between rounds
  // (that build is thrown away). Each sample then starts from the caches a
  // round of work left behind, as a process's first build does. Builds
  // run back to back read half as long, so the two kinds are not mixed.
  std::vector<double> setup_s;
  const auto build = [&] {
    release_freed_memory();
    const auto t0 = now_ns();
    auto built = std::make_unique<Rig>(opt, degraded);
    setup_s.push_back(seconds_since(t0));
    return built;
  };
  std::unique_ptr<Rig> rig = build();

  // [traced][kind]; untraced rounds feed the end-to-end numbers and the
  // tracing-overhead denominator.
  EpisodeSamples samples[2][kKinds];
  std::vector<double> round_p99_us;  // untraced rounds, hwbar segments
  std::vector<double> round_rate;
  std::vector<Span> segment_spans;
  std::uint64_t serial = 0;
  const auto loop_start = now_ns();
  const int min_rounds = cfg.trace ? 2 : 1;  // the traced run needs both kinds
  for (int round = 0;
       round < min_rounds || seconds_since(loop_start) < cfg.seconds; ++round) {
    if (round > 0) build().reset();  // a set-up sample only
    const bool traced = cfg.trace && round % 2 == 1;
    EpisodeSamples round_hw;
    for (int kind = 0; kind < kinds; ++kind, ++serial) {
      const std::function<void(int)> body = [&](int tid) {
        run_kind(*rig, rec, kind, tid, cfg.seed, serial, traced);
      };
      for (const auto& e : rig->pool.run(body)) {
        rep.check(false, std::string(kind_name[kind]) + ": " + e);
      }
      EpisodeSamples seg;
      analyze_segment(rec.logs, seg, rep, kind_name[kind]);
      samples[traced ? 1 : 0][kind].append(seg);
      if (kind < kHwKinds) round_hw.append(seg);
      std::string why;
      const bool agree = ranks_agree(rec.logs, &why);
      rep.check(agree, std::string(kind_name[kind]) + ": " + why);
      if (traced) {
        segment_spans.push_back(segment_span(
            rec.begin, rec.logs, kSegmentName[degraded ? 1 : 0][kind], serial));
      }
    }
    if (!traced) {
      round_p99_us.push_back(round_hw.latency.summary_us().p99);
      round_rate.push_back(round_hw.phases_per_s());
    }
  }

  std::uint64_t bad_status = 0;
  for (const auto b : rec.bad_status) bad_status += b;
  rep.check(bad_status == 0, "hwbar: " + std::to_string(bad_status) +
                                 " arrivals ended killed or evicted");
  const hwbar::Stats stats[kHwKinds] = {rig->central->stats(),
                                        rig->tree->stats()};
  hwbar::Stats sum;
  for (int k = 0; k < kHwKinds; ++k) {
    rep.check(no_failures_declared(stats[k].deaths, stats[k].evictions),
              std::string(kind_name[k]) + ": death or eviction declared");
    sum.deaths += stats[k].deaths;
    sum.evictions += stats[k].evictions;
    sum.wave_commits += stats[k].wave_commits;
    sum.scan_commits += stats[k].scan_commits;
  }

  // [traced]: geometric mean of the hwbar barriers' episode p50s (us).
  const auto p50 = [&](int traced, int kind) {
    return samples[traced][kind].latency.summary_us().p50;
  };
  const auto hw_p50 = [&](int traced) {
    return std::sqrt(p50(traced, kCentral) * p50(traced, kTree));
  };
  const std::uint64_t episodes =
      samples[0][kCentral].episodes + samples[0][kTree].episodes;
  rep.e2e("setup_s", median_of(setup_s), "s",
          "median of " + std::to_string(setup_s.size()) + " rig builds");
  rep.e2e("latency_p50_us", hw_p50(0), "us",
          "geometric mean of the central and tree episode p50s, n=" +
              std::to_string(episodes) + " episodes");
  EpisodeSamples hw0;
  for (int k = 0; k < kHwKinds; ++k) hw0.append(samples[0][k]);
  const auto pooled0 = hw0.latency.summary_us();
  const std::string rounds_note =
      "median of " + std::to_string(round_p99_us.size()) + " untraced rounds";
  rep.lines.push_back(
      "episode p50_us central " + std::to_string(p50(0, kCentral)) +
      ", tree " + std::to_string(p50(0, kTree)) + "; pooled p90_us " +
      std::to_string(pooled0.p90) + ", p99_us " + std::to_string(pooled0.p99) +
      "; round p99_us " + std::to_string(median_of(round_p99_us)) +
      ", phases_per_s " + std::to_string(median_of(round_rate)) + " (" +
      rounds_note + ")");

  if (cfg.trace) {
    EpisodeSamples hw1;
    for (int k = 0; k < kHwKinds; ++k) hw1.append(samples[1][k]);
    const std::string n1 = "n=" + std::to_string(hw1.episodes) + " episodes";
    rep.layer("hwbar.commit_p50_ns", hw1.commit.quantile_ns(0.5), "ns", n1);
    rep.layer("hwbar.commit_p99_ns", hw1.commit.quantile_ns(0.99), "ns", n1);
    rep.layer("hwbar.wake_spread_p50_ns", hw1.spread.quantile_ns(0.5), "ns", n1);
    rep.layer("hwbar.wake_spread_p99_ns", hw1.spread.quantile_ns(0.99), "ns", n1);
    rep.layer("hwbar.skew_wait_p50_us", hw1.skew.quantile_ns(0.5) * 1e-3, "us", n1);
    rep.layer("hwbar.episode_p99_us", median_of(round_p99_us), "us",
              "round p99, " + rounds_note);
    rep.layer("hwbar.phases_per_s", median_of(round_rate), "1/s",
              "round commit rate, " + rounds_note);
    rep.layer(std::string(kind_name[kCentral]) + ".episode_p50_us",
              p50(1, kCentral), "us");
    rep.layer(std::string(kind_name[kTree]) + ".episode_p50_us",
              p50(1, kTree), "us");
    if (degraded) {
      rep.layer("hwbar.degraded_scan_share",
                share(sum.scan_commits, sum.wave_commits + sum.scan_commits),
                "ratio", "commits taken by the scan path");
    } else {
      rep.layer("baseline.central.episode_p50_us", p50(1, kBaseCentral), "us");
      rep.layer("baseline.tree.episode_p50_us", p50(1, kBaseTree), "us");
      rep.layer("hwbar.ft_overhead_central",
                p50(1, kCentral) / p50(1, kBaseCentral), "ratio",
                "hwbar.central / baseline.central episode p50");
      rep.layer("hwbar.ft_overhead_tree", p50(1, kTree) / p50(1, kBaseTree),
                "ratio", "hwbar.tree / baseline.tree episode p50");
      rep.layer("hwbar.wave_share_healthy",
                share(sum.wave_commits, sum.wave_commits + sum.scan_commits),
                "ratio", "commits taken by the fast wave");
    }
    rep.layer("hwbar.deaths", static_cast<double>(sum.deaths), "count");
    rep.layer("hwbar.evictions", static_cast<double>(sum.evictions), "count");
    rep.layer("trace.overhead_ratio", hw_p50(1) / hw_p50(0), "ratio",
              "traced / untraced latency_p50_us, alternating rounds");

    SpanLog log;
    build_span_log(segment_spans, rec.rings, log);
    finish_trace(cfg, log, rep);
  }
  return rep;
}

}  // namespace perfbench
