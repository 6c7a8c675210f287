// The message-passing part of the shm_bsp traced run (mp_clean, then
// mp_lossy): program MB over runtime::Network, through both of
// its front ends, carrying the BSP superstep value of
// examples/mpi_style_bsp.cpp (x <- x/2 + 1, rolled back on a repeat).
//
// Each of kRounds rounds runs a time-bounded core::FaultTolerantBarrier
// segment, then an mpi::FtBarrier (kTolerant) segment of exactly as many
// committed phases, so each front end gets half of the phases; mp_clean
// adds a reference segment of mpi::FtBarrier in kErrorCode mode (the
// intolerant tree barrier) over the same transport. Every round builds its
// barriers, networks and communicators before its first measured phase and
// drains each barrier after its segment; one worker pool serves all rounds.
// Set-up is sampled by timing whole builds (one round's objects plus a
// worker pool) before the first round and between rounds. mp_lossy runs
// the same loop over links with drop 2%, duplicate 1%, reorder 1% and
// corrupt 1%, and one seeded rank reports ok=false on a seeded 1-in-32 of
// its arrivals. The printed tail and rate are medians over untraced rounds
// of each round's p99 and plain rate. Nothing here is an end-to-end metric.
#include <atomic>
#include <functional>
#include <limits>
#include <memory>

#include "core/ft_barrier.hpp"
#include "harness.hpp"
#include "mpi/ft_barrier_mpi.hpp"
#include "runtime/network.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace core = ftbar::core;
namespace mpi = ftbar::mpi;
namespace runtime = ftbar::runtime;

constexpr int kRounds = 16;
constexpr std::size_t kRingSpans = 4096;
constexpr double kGarbage = -12345.0;  ///< the superstep a fault destroyed
/// Modulus of the phase numbers both tolerant front ends return.
constexpr int kNumPhases = 64;

enum Front { kCore, kMpi, kIntolerant, kFronts };
constexpr const char* kFrontName[kFronts] = {"core", "mpi", "mpi.intolerant"};
constexpr const char* kSegmentName[kFronts] = {
    "segment.core", "segment.mpi", "segment.mpi.intolerant"};

runtime::LinkFaults link_faults(bool lossy) {
  if (!lossy) return {};
  // 2% drop, not 5%: at 5% (plus 1% corruption) about 44% of phases wait
  // for a retransmit, the median sits on the edge between the fast and
  // the retransmit-bound phases, and it flipped between 140 and 310 us
  // from run to run. At 2% about a quarter of the phases retransmit.
  return runtime::LinkFaults{.drop = 0.02, .duplicate = 0.01, .corrupt = 0.01,
                             .reorder = 0.01};
}

std::vector<std::unique_ptr<mpi::FtBarrier>> make_ranks(
    const std::shared_ptr<runtime::Network>& net, mpi::FtMode mode) {
  mpi::FtBarrierOptions o;
  o.num_phases = kNumPhases;
  std::vector<std::unique_ptr<mpi::FtBarrier>> out;
  for (int r = 0; r < kThreads; ++r) {
    out.push_back(std::make_unique<mpi::FtBarrier>(mpi::Communicator(net, r),
                                                   mode, o));
  }
  return out;
}

/// The barrier objects of one round.
struct Round {
  Round(bool lossy, std::uint64_t seed, std::uint64_t round) {
    const auto faults = link_faults(lossy);
    core::BarrierOptions bo;
    bo.num_phases = kNumPhases;
    bo.link_faults = faults;
    bo.seed = mix(seed, round, kCore);
    core = std::make_unique<core::FaultTolerantBarrier>(kThreads, bo);
    mpi_net = std::make_shared<runtime::Network>(kThreads,
                                                 mix(seed, round, kMpi));
    mpi_net->set_default_faults(faults);
    mpi = make_ranks(mpi_net, mpi::FtMode::kTolerant);
    if (!lossy) {
      ref_net = std::make_shared<runtime::Network>(
          kThreads, mix(seed, round, kIntolerant));
      ref = make_ranks(ref_net, mpi::FtMode::kErrorCode);
    }
  }

  std::unique_ptr<core::FaultTolerantBarrier> core;
  std::shared_ptr<runtime::Network> mpi_net;
  std::vector<std::unique_ptr<mpi::FtBarrier>> mpi;  ///< one per rank
  std::shared_ptr<runtime::Network> ref_net;         ///< mp_clean only
  std::vector<std::unique_ptr<mpi::FtBarrier>> ref;
};

/// What a set-up builds: a round's barrier objects and the worker pool.
struct Rig {
  Rig(bool lossy, std::uint64_t seed, std::uint64_t round)
      : round(std::make_unique<Round>(lossy, seed, round)) {}
  std::unique_ptr<Round> round;
  Pool pool{kThreads};  // last: joined before the barriers go away
};

/// What the workers record.
struct Records {
  Records()
      : logs(kThreads),
        begin(kThreads, 0),
        calls(kThreads, 0),
        repeats(kThreads, 0),
        block_end(kThreads),
        errors(kThreads, 0) {
    for (auto& l : logs) l.reserve(1 << 16);
  }
  std::vector<CallLog> logs;
  std::vector<std::int64_t> begin;
  std::vector<std::uint64_t> calls;    ///< tolerant waits, all tickets
  std::vector<std::uint64_t> repeats;  ///< tolerant waits that said repeat
  /// Per thread: the BSP value after each block of the current segment.
  std::vector<std::vector<double>> block_end;
  std::vector<std::uint64_t> errors;   ///< intolerant waits that timed out
  std::vector<SpanRing> rings;  ///< [front * kThreads + tid], traced run only
  std::atomic<std::uint64_t> stop_at{0};
};

/// What one segment's threads share.
struct Segment {
  int front = kCore;
  std::uint64_t serial = 0;
  std::uint64_t seed = 0;
  bool traced = false;
  int faulty_rank = -1;
  double slice_s = 0;  ///< > 0: thread 0 ends the segment after this long

  /// Seed of the segment's BSP start values (the same on every thread).
  [[nodiscard]] std::uint64_t bsp_seed() const {
    return mix(seed, serial, 0xb5b);
  }
};

/// A tolerant front end's closed loop: grain, superstep, timed wait, and
/// rollback on a repeat, until `stop_at` committed phases.
template <class Wait>
void tolerant_loop(Records& rec, const Segment& seg, int tid, Wait&& wait) {
  const auto t = static_cast<std::size_t>(tid);
  CallLog& log = rec.logs[t];
  log.clear();
  std::vector<double>& block_end = rec.block_end[t];
  block_end.clear();
  const bool faulty = tid == seg.faulty_rank;
  double x = bsp_block_start(seg.bsp_seed(), 0);
  std::uint64_t committed = 0;
  std::uint64_t call = 0;
  const std::int64_t begin = now_ns();
  rec.begin[t] = begin;
  const char* name = seg.front == kCore ? "core.arrive_and_wait" : "mpi.wait";
  const char* layer = seg.front == kCore ? "core" : "mpi";
  while (committed < rec.stop_at.load(std::memory_order_acquire)) {
    const std::int64_t w0 = now_ns();
    busy_work(grain_ns(seg.seed, seg.serial, tid, call));
    double next = bsp_step(x);
    bool ok = true;
    if (faulty && mix(seg.seed ^ 0xfa17, seg.serial, t, call) % 32 == 0) {
      ok = false;  // this rank lost its superstep: it must be redone
      next = kGarbage;
    }
    const std::int64_t t0 = now_ns();
    const core::PhaseTicket ticket = wait(ok);
    const std::int64_t t1 = now_ns();
    ++call;
    if (seg.traced) {
      SpanRing& ring =
          rec.rings[static_cast<std::size_t>(seg.front * kThreads + tid)];
      const auto id = episode_id(seg.serial, committed);
      ring.push(Span{"app.work", "app", w0, t0, id, -1, tid});
      ring.push(Span{name, layer, t0, t1, id, -1, tid});
    }
    if (ticket.repeated) {
      ++rec.repeats[t];
      continue;  // x still holds the last committed value
    }
    log.start_ns.push_back(t0);
    log.end_ns.push_back(t1);
    log.phase.push_back(ticket.phase);
    x = next;
    if (++committed % kBspBlock == 0) {
      block_end.push_back(x);
      x = bsp_block_start(seg.bsp_seed(), block_end.size());
    }
    if (seg.slice_s > 0 && tid == 0 &&
        rec.stop_at.load(std::memory_order_relaxed) ==
            std::numeric_limits<std::uint64_t>::max() &&
        static_cast<double>(t1 - begin) * 1e-9 >= seg.slice_s) {
      // Every peer has committed at least `committed - 1` phases and none
      // can commit `committed + 1` before this thread arrives again, so
      // all of them see this bound before passing it.
      rec.stop_at.store(committed + 2, std::memory_order_release);
    }
  }
  if (committed % kBspBlock != 0) block_end.push_back(x);
  rec.calls[t] += call;
}

void intolerant_loop(Records& rec, const Segment& seg, int tid,
                     mpi::FtBarrier& bar, std::uint64_t count) {
  const auto t = static_cast<std::size_t>(tid);
  CallLog& log = rec.logs[t];
  log.clear();
  rec.begin[t] = now_ns();
  for (std::uint64_t k = 0; k < count; ++k) {
    const std::int64_t w0 = now_ns();
    busy_work(grain_ns(seg.seed, seg.serial, tid, k));
    const std::int64_t t0 = now_ns();
    const auto res = bar.wait();
    const std::int64_t t1 = now_ns();
    if (res.err != mpi::Err::kSuccess) ++rec.errors[t];
    log.start_ns.push_back(t0);
    log.end_ns.push_back(t1);
    log.phase.push_back(static_cast<std::int32_t>(k));
    if (seg.traced) {
      SpanRing& ring =
          rec.rings[static_cast<std::size_t>(seg.front * kThreads + tid)];
      const auto id = episode_id(seg.serial, k);
      ring.push(Span{"app.work", "app", w0, t0, id, -1, tid});
      ring.push(Span{"mpi.wait", "mpi", t0, t1, id, -1, tid});
    }
  }
}

/// The MbEngine-only probe: one thread drives an N=kThreads engine ring
/// through on_neighbor_state, step and take_ticket with no transport.
/// Returns ns per phase; with `spans`, also records a short traced burst.
double engine_probe(double seconds, Report& rep, SpanLog* spans) {
  std::vector<core::MbEngine> eng;
  for (int j = 0; j < kThreads; ++j) eng.emplace_back(j, kThreads, 64);
  std::vector<std::uint64_t> tickets(kThreads, 0);
  const auto sweep = [&](std::int64_t parent) {
    for (int j = 0; j < kThreads; ++j) {
      const int pred = (j + kThreads - 1) % kThreads;
      const int succ = (j + 1) % kThreads;
      auto& e = eng[static_cast<std::size_t>(j)];
      if (spans == nullptr || parent < 0) {
        e.on_neighbor_state(pred, eng[static_cast<std::size_t>(pred)].wire_state());
        e.on_neighbor_state(succ, eng[static_cast<std::size_t>(succ)].wire_state());
        e.step();
        if (e.take_ticket()) ++tickets[static_cast<std::size_t>(j)];
        continue;
      }
      const auto timed = [&](const char* name, auto&& fn) {
        const auto t0 = now_ns();
        fn();
        spans->add(Span{name, "core", t0, now_ns(), parent, parent, j});
      };
      timed("core.MbEngine.on_neighbor_state", [&] {
        e.on_neighbor_state(pred, eng[static_cast<std::size_t>(pred)].wire_state());
      });
      timed("core.MbEngine.on_neighbor_state", [&] {
        e.on_neighbor_state(succ, eng[static_cast<std::size_t>(succ)].wire_state());
      });
      timed("core.MbEngine.step", [&] { e.step(); });
      timed("core.MbEngine.take_ticket", [&] {
        if (e.take_ticket()) ++tickets[static_cast<std::size_t>(j)];
      });
    }
  };
  const auto t0 = now_ns();
  std::int64_t elapsed = 0;
  do {
    for (int i = 0; i < 1024; ++i) sweep(-1);
    elapsed = now_ns() - t0;
  } while (static_cast<double>(elapsed) * 1e-9 < seconds);
  const auto [lo, hi] = std::minmax_element(tickets.begin(), tickets.end());
  rep.check(*lo > 0 && *hi - *lo <= 1,
            "engine probe: engines released " + std::to_string(*lo) + ".." +
                std::to_string(*hi) + " phases");
  const double ns_per_phase =
      *lo > 0 ? static_cast<double>(elapsed) / static_cast<double>(*lo) : 0;
  if (spans != nullptr) {
    for (int i = 0; i < 256; ++i) {
      const auto idx = spans->add(
          Span{"probe.sweep", "bench", now_ns(), 0, -1, -1, 200});
      spans->spans[static_cast<std::size_t>(idx)].id = idx;
      sweep(idx);
      spans->spans[static_cast<std::size_t>(idx)].end_ns = now_ns();
    }
  }
  return ns_per_phase;
}

}  // namespace

Report run_mp(const RunConfig& cfg, bool lossy) {
  Report rep;
  Records rec;
  if (cfg.trace) rec.rings.assign(kThreads * kFronts, SpanRing(kRingSpans));

  // Set-up is sampled once before the first round and once between rounds
  // (that build is thrown away). Each sample then starts from the caches a
  // round of work left behind, as a process's first build does. Builds
  // run back to back read half as long, so the two kinds are not mixed.
  std::vector<double> setup_s;
  const auto build = [&](std::uint64_t round) {
    release_freed_memory();
    const auto t0 = now_ns();
    auto built = std::make_unique<Rig>(lossy, cfg.seed, round);
    setup_s.push_back(seconds_since(t0));
    return built;
  };
  std::unique_ptr<Rig> rig = build(0);
  // Network traffic of the tolerant segments, up to the moment the first
  // thread leaves its loop: the drain that follows (finalize/drain, which
  // floods byes until every peer is done) is not phase traffic.
  runtime::Network::Stats net;
  const auto fold_traffic = [&](const runtime::Network::Stats& s) {
    net.sent += s.sent;
    net.delivered += s.delivered;
    net.dropped += s.dropped;
    net.duplicated += s.duplicated;
    net.reordered += s.reordered;
    net.corrupted += s.corrupted;
  };

  const int faulty_rank = lossy ? static_cast<int>(cfg.seed % kThreads) : -1;
  EpisodeSamples samples[2][kFronts];  // [traced][front]
  EpisodeSamples round_ft;             // this round's tolerant segments
  std::vector<Span> segment_spans;
  std::uint64_t serial = 0;
  const auto run_segment = [&](int front, bool traced, std::uint64_t stop_at,
                               double slice) {
    Segment seg;
    seg.front = front;
    seg.serial = serial++;
    seg.seed = cfg.seed;
    seg.traced = traced;
    seg.faulty_rank = faulty_rank;
    seg.slice_s = slice;
    rec.stop_at.store(stop_at, std::memory_order_relaxed);
    Round& r = *rig->round;
    std::atomic<int> left_loop{0};
    runtime::Network::Stats traffic;
    const auto first_out = [&](const runtime::Network::Stats& s) {
      if (left_loop.fetch_add(1, std::memory_order_acq_rel) == 0) traffic = s;
    };
    const std::function<void(int)> body = [&](int tid) {
      const auto t = static_cast<std::size_t>(tid);
      if (front == kCore) {
        tolerant_loop(rec, seg, tid, [&](bool ok) {
          return r.core->arrive_and_wait(tid, ok);
        });
        first_out(r.core->network_stats());
        r.core->finalize(tid);
      } else if (front == kMpi) {
        tolerant_loop(rec, seg, tid,
                      [&](bool ok) { return r.mpi[t]->wait(ok).ticket; });
        first_out(r.mpi_net->stats());
        r.mpi[t]->drain();
      } else {
        intolerant_loop(rec, seg, tid, *r.ref[t], stop_at);
      }
    };
    for (const auto& e : rig->pool.run(body)) {
      rep.check(false, std::string(kFrontName[front]) + ": " + e);
    }
    if (front != kIntolerant) fold_traffic(traffic);
    EpisodeSamples out;
    analyze_segment(rec.logs, out, rep, kFrontName[front]);
    samples[traced ? 1 : 0][front].append(out);
    if (front != kIntolerant) round_ft.append(out);
    std::string why;
    const bool agree = ranks_agree(rec.logs, &why);
    rep.check(agree, std::string(kFrontName[front]) + ": " + why);
    for (std::size_t t = 0; front != kIntolerant && t < kThreads; ++t) {
      const bool bsp = bsp_values_ok(seg.bsp_seed(), rec.logs[t].phase,
                                     rec.block_end[t], kNumPhases, &why);
      rep.check(bsp, std::string(kFrontName[front]) + ": thread " +
                         std::to_string(t) + ": " + why);
    }
    if (traced) {
      segment_spans.push_back(
          segment_span(rec.begin, rec.logs, kSegmentName[front], seg.serial));
    }
    return static_cast<std::uint64_t>(rec.logs[0].end_ns.size());
  };

  // A round runs a time-bounded core segment, the same number of mpi
  // phases and (clean) half as many reference phases. The core slice is
  // sized from the previous round's share so the rounds fill the run.
  double core_share = lossy ? 0.5 : 0.45;
  std::vector<double> round_p99_us;  // untraced rounds
  std::vector<double> round_rate;
  const auto loop_start = now_ns();
  for (int r = 0; r < kRounds; ++r) {
    if (r > 0) {
      const auto round = static_cast<std::uint64_t>(r);
      rig->round = std::make_unique<Round>(lossy, cfg.seed, round);
      build(round).reset();  // a set-up sample only
    }
    const bool traced = cfg.trace && r % 2 == 1;
    const double left = cfg.seconds - seconds_since(loop_start);
    const double slice = std::max(0.05, left / (kRounds - r) * core_share);
    round_ft = EpisodeSamples{};
    const auto round_start = now_ns();
    const std::uint64_t phases = run_segment(
        kCore, traced, std::numeric_limits<std::uint64_t>::max(), slice);
    const double core_s = seconds_since(round_start);
    run_segment(kMpi, traced, phases, 0);
    if (!lossy) run_segment(kIntolerant, traced, phases / 2, 0);
    core_share = std::clamp(core_s / seconds_since(round_start), 0.1, 1.0);
    if (!traced) {
      round_p99_us.push_back(round_ft.latency.summary_us().p99);
      round_rate.push_back(round_ft.phases_per_s());
    }
  }
  const double loop_s = seconds_since(loop_start);

  std::uint64_t calls = 0;
  std::uint64_t repeats = 0;
  std::uint64_t errors = 0;
  for (int t = 0; t < kThreads; ++t) {
    const auto i = static_cast<std::size_t>(t);
    calls += rec.calls[i];
    repeats += rec.repeats[i];
    errors += rec.errors[i];
  }
  rep.check(errors == 0,
            std::to_string(errors) + " intolerant waits timed out");
  if (lossy) {
    rep.check(repeats > 0, "no ok=false arrival led to a repeat");
  }

  EpisodeSamples ft0;  // both tolerant front ends, untraced rounds
  ft0.append(samples[0][kCore]);
  ft0.append(samples[0][kMpi]);
  const auto untraced = ft0.latency.summary_us();
  const std::string n_note =
      "n=" + std::to_string(untraced.n) + " committed phases";
  // Only per-layer metrics come from here (see main.cpp), so the figures a
  // user would wait for are printed as lines.
  rep.lines.push_back("setup_s " + std::to_string(median_of(setup_s)) +
                      " (median of " + std::to_string(setup_s.size()) +
                      " rig builds)");
  rep.lines.push_back("episode p50_us " + std::to_string(untraced.p50) +
                      ", p90_us " + std::to_string(untraced.p90) +
                      ", p99_us " + std::to_string(untraced.p99) + " (" +
                      n_note +
                      "); round p99_us " +
                      std::to_string(median_of(round_p99_us)) +
                      ", phases_per_s " + std::to_string(median_of(round_rate)) +
                      " (median of " + std::to_string(round_p99_us.size()) +
                      " untraced rounds)");
  rep.lines.push_back("measured loop " + std::to_string(loop_s) + " s, " +
                      std::to_string(serial) + " segments");

  if (cfg.trace) {
    const auto core1 = samples[1][kCore].latency.summary_us();
    const auto mpi1 = samples[1][kMpi].latency.summary_us();
    rep.layer("core.episode_p50_us", core1.p50, "us",
              "n=" + std::to_string(core1.n));
    rep.layer("core.episode_p99_us", core1.p99, "us",
              "n=" + std::to_string(core1.n));
    rep.layer("mpi.episode_p50_us", mpi1.p50, "us",
              "n=" + std::to_string(mpi1.n));
    rep.layer("mpi.episode_p99_us", mpi1.p99, "us",
              "n=" + std::to_string(mpi1.n));
    if (!lossy) {
      const auto ref1 = samples[1][kIntolerant].latency.summary_us();
      rep.layer("mpi.intolerant.episode_p50_us", ref1.p50, "us",
                "n=" + std::to_string(ref1.n));
      rep.layer("mpi.ft_overhead", mpi1.p50 / ref1.p50, "ratio",
                "mpi kTolerant / kErrorCode episode p50");
    }
    rep.layer("core.repeat_ratio",
              calls > 0 ? static_cast<double>(repeats) /
                              static_cast<double>(calls)
                        : 0,
              "ratio", std::to_string(repeats) + " of " +
                           std::to_string(calls) + " tickets");
    const double phases = static_cast<double>(
        samples[0][kCore].episodes + samples[0][kMpi].episodes +
        samples[1][kCore].episodes + samples[1][kMpi].episodes);
    const auto per_phase = [&](std::uint64_t v) {
      return phases > 0 ? static_cast<double>(v) / phases : 0;
    };
    const std::string net_note = "Network::stats() / committed phases";
    rep.layer("runtime.sent_per_phase", per_phase(net.sent), "msg", net_note);
    rep.layer("runtime.delivered_per_phase", per_phase(net.delivered), "msg",
              net_note);
    rep.layer("runtime.dropped_per_phase", per_phase(net.dropped), "msg",
              net_note);
    rep.layer("runtime.duplicated_per_phase", per_phase(net.duplicated), "msg",
              net_note);
    rep.layer("runtime.reordered_per_phase", per_phase(net.reordered), "msg",
              net_note);
    rep.layer("runtime.corrupted_per_phase", per_phase(net.corrupted), "msg",
              net_note);

    SpanLog log;
    build_span_log(segment_spans, rec.rings, log);
    // The probe has no transport, so only the clean run pairs it with an
    // episode; the lossy links could not move it.
    if (!lossy) {
      const double engine_ns = engine_probe(0.25, rep, &log);
      rep.layer("core.engine_ns_per_phase", engine_ns, "ns",
                "one thread, N=" + std::to_string(kThreads) +
                    " MbEngine ring, no transport");
      rep.layer("core.engine_share_of_episode",
                core1.p50 > 0 ? engine_ns / (core1.p50 * 1e3) : 0, "ratio",
                "engine_ns_per_phase / core.episode_p50_us");
      char buf[200];
      std::snprintf(
          buf, sizeof buf,
          "protocol compute vs transport+wake: MbEngine %.0f ns/phase "
          "of a %.1f us core episode (%.1f%% compute)",
          engine_ns, core1.p50,
          core1.p50 > 0 ? 100.0 * engine_ns / (core1.p50 * 1e3) : 0.0);
      rep.lines.emplace_back(buf);
    }
    finish_trace(cfg, log, rep);
  }
  return rep;
}

}  // namespace perfbench
