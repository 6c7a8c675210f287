// The checker part of the shm_degraded traced run (verify_rb16): the
// ftbar_check convergence path on RB with 16 processes and 8 phases — make_rb_bundle(16, 8), interleaving semantics, the
// undetectable fault class, record_edges on, work stealing at kThreads
// with the default chunk, then legit_reachable_from_all and
// converges_outside. No barrier runs; the checker does all the work.
//
// Set-up is the bundle build, timed before every verdict (median
// reported), so each sample starts from the caches a verdict left behind,
// as a process's first build does; builds run back to back read up to a
// third shorter. After one untimed warm-up verdict, a verdict is timed
// from the start of Checker::run until both queries have returned, and
// repeated until the run's seconds are spent.
#include <memory>

#include "check/checker.hpp"
#include "check/programs.hpp"
#include "checks.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace check = ftbar::check;
namespace core = ftbar::core;

constexpr int kProcs = 16;
constexpr int kPhases = 8;
constexpr int kMinVerdicts = 2;

/// FNV-1a over sorted_digests() of the reachable set, recorded from a
/// Release build; any change to the explored state set changes it.
constexpr std::uint64_t kDigestFingerprint = 0x507515552203e548ULL;

check::CheckOptions options() {
  check::CheckOptions o;
  o.semantics = ftbar::sim::Semantics::kInterleaving;
  o.threads = kThreads;
  o.schedule = check::Schedule::kWorkStealing;
  o.record_edges = true;
  return o;
}

struct Verdict {
  double verdict_s = 0;
  double run_s = 0;
  double reach_s = 0;
  double cycle_s = 0;
  check::CheckCounters counters;
  VerdictSeen seen;
};

Verdict one_verdict(const check::ProgramBundle<core::RbProc>& bundle,
                    SpanLog* spans, std::int64_t id) {
  check::Checker<core::RbProc> checker(bundle.actions, bundle.procs, options(),
                                       bundle.symmetry);
  const auto always = [](const std::vector<core::RbProc>&) { return true; };
  Verdict v;
  const auto t0 = now_ns();
  const auto result =
      checker.run(bundle.roots(check::FaultClass::kUndetectable), always);
  const auto t1 = now_ns();
  const bool reachable = result.ok() && checker.legit_reachable_from_all(bundle.legit);
  const auto t2 = now_ns();
  const bool converges = reachable && checker.converges_outside(bundle.legit);
  const auto t3 = now_ns();
  v.verdict_s = static_cast<double>(t3 - t0) * 1e-9;
  v.run_s = static_cast<double>(t1 - t0) * 1e-9;
  v.reach_s = static_cast<double>(t2 - t1) * 1e-9;
  v.cycle_s = static_cast<double>(t3 - t2) * 1e-9;
  v.counters = result.counters;
  v.seen.states = result.states_visited;
  v.seen.levels = result.levels;
  v.seen.clean = result.ok();
  v.seen.reachable = reachable;
  v.seen.converges = converges;
  if (result.ok()) v.seen.fingerprint = fingerprint(checker.sorted_digests());
  if (spans != nullptr) {
    const auto root = spans->add(Span{"verdict", "bench", t0, t3, id, -1, 0});
    spans->add(Span{"check.Checker::run", "check", t0, t1, id, root, 0});
    spans->add(Span{"check.legit_reachable_from_all", "check", t1, t2, id,
                    root, 0});
    spans->add(Span{"check.converges_outside", "check", t2, t3, id, root, 0});
  }
  return v;
}

}  // namespace

Report run_verify_rb16(const RunConfig& cfg) {
  Report rep;
  SpanLog log;
  std::vector<double> setup_s;
  std::unique_ptr<check::ProgramBundle<core::RbProc>> bundle;
  const auto build = [&] {
    bundle.reset();
    release_freed_memory();
    const auto t0 = now_ns();
    bundle = std::make_unique<check::ProgramBundle<core::RbProc>>(
        check::make_rb_bundle(kProcs, kPhases));
    const auto t1 = now_ns();
    setup_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    if (cfg.trace) {
      log.add(Span{"check.make_rb_bundle", "check", t0, t1, -1, -1, 0});
    }
  };
  build();

  // [traced]: in the traced run verdicts alternate untraced / traced.
  std::vector<Verdict> verdicts[2];
  const VerdictExpect expect{1'400'845, 63, kDigestFingerprint};
  const auto checked_verdict = [&](bool traced, std::int64_t id) {
    release_freed_memory();
    Verdict v = one_verdict(*bundle, traced ? &log : nullptr, id);
    std::string why;
    const bool ok = verdict_ok(v.seen, expect, &why);
    rep.check(ok, why);
    return v;
  };
  // The process's first verdict pays for first-touching the code and the
  // allocator's arenas (a second or more above the rest); it is checked
  // but kept out of every timing.
  checked_verdict(false, -1);
  const auto loop_start = now_ns();
  for (int i = 0; i < kMinVerdicts * (cfg.trace ? 2 : 1) ||
                  seconds_since(loop_start) < cfg.seconds;
       ++i) {
    const bool traced = cfg.trace && i % 2 == 1;
    build();
    verdicts[traced ? 1 : 0].push_back(checked_verdict(traced, i));
  }

  const auto collect = [](const std::vector<Verdict>& vs, auto field) {
    std::vector<double> out;
    for (const auto& v : vs) out.push_back(field(v));
    return out;
  };
  auto verdict_s =
      collect(verdicts[0], [](const Verdict& v) { return v.verdict_s; });
  const auto sum = summarize(verdict_s);
  // Only per-layer metrics come from here (see main.cpp), so the figures a
  // user would wait for are printed as lines.
  rep.lines.push_back("setup_s " + std::to_string(median_of(setup_s)) +
                      " (median of " + std::to_string(setup_s.size()) +
                      " make_rb_bundle); verdict_s p50 " +
                      std::to_string(sum.p50) + " (n=" +
                      std::to_string(sum.n) + " verdicts)");
  std::string each = "verdict_s (run+reach+cycle):";
  char buf[160];
  for (const auto& v : verdicts[0]) {
    std::snprintf(buf, sizeof buf, " %.3f(%.2f+%.2f+%.2f)", v.verdict_s,
                  v.run_s, v.reach_s, v.cycle_s);
    each += buf;
  }
  rep.lines.push_back(each);
  const auto& first = verdicts[0].front();
  std::snprintf(buf, sizeof buf,
                "states %zu levels %zu convergence %s digest fingerprint "
                "%016llx",
                first.seen.states, first.seen.levels,
                first.seen.converges ? "guaranteed" : "NOT guaranteed",
                static_cast<unsigned long long>(first.seen.fingerprint));
  rep.lines.emplace_back(buf);

  if (cfg.trace) {
    const auto& vs = verdicts[1];
    const auto med = [&](auto field) { return median_of(collect(vs, field)); };
    const double explore_s = med([](const Verdict& v) { return v.run_s; });
    rep.layer("check.bundle_s", median_of(setup_s), "s");
    rep.layer("check.explore_s", explore_s, "s", "Checker::run");
    rep.layer("check.states_per_s",
              med([](const Verdict& v) { return v.counters.states_per_sec(); }),
              "1/s", "CheckCounters::states_per_sec");
    const auto& c = vs.front().counters;
    rep.layer("check.dedup_hit_rate", c.dedup_hit_rate(), "ratio");
    rep.layer("check.steals", static_cast<double>(c.steals), "count",
              "first traced verdict");
    rep.layer("check.avg_chunk_fill", c.avg_chunk_fill(), "states");
    rep.layer("check.guard_evals_per_state",
              c.expanded > 0 ? static_cast<double>(c.guard_evals) /
                                   static_cast<double>(c.expanded)
                             : 0,
              "ratio");
    rep.layer("check.reexpansions", static_cast<double>(c.reexpansions),
              "count", "first traced verdict");
    rep.layer("check.reach_s", med([](const Verdict& v) { return v.reach_s; }),
              "s", "legit_reachable_from_all");
    rep.layer("check.cycle_s", med([](const Verdict& v) { return v.cycle_s; }),
              "s", "converges_outside");
    rep.layer("check.states", static_cast<double>(vs.front().seen.states),
              "count");
    rep.layer("check.levels", static_cast<double>(vs.front().seen.levels),
              "count");
    finish_trace(cfg, log, rep);
  }
  return rep;
}

}  // namespace perfbench
