// The repository benchmark program: runs one workload in this process and
// prints every metric by name with its unit, then one JSON result line.
//
//   perfbench --workload shm_bsp|shm_degraded
//             --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//             [--git-sha SHA]
//
// perfbench/run.py builds this binary in Release and is the documented
// entry point; see perfbench/NOTES.md for what each metric means.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "checks.hpp"
#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every workload reports with --trace 0.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_us", "us"},
};

/// The per-layer metrics reported with --trace 1. A workload that does not
/// exercise a layer reports 0 for its metrics.
constexpr MetricDef kPerLayer[] = {
    {"hwbar.commit_p50_ns", "ns"},
    {"hwbar.commit_p99_ns", "ns"},
    {"hwbar.wake_spread_p50_ns", "ns"},
    {"hwbar.wake_spread_p99_ns", "ns"},
    {"hwbar.skew_wait_p50_us", "us"},
    {"hwbar.episode_p99_us", "us"},
    {"hwbar.phases_per_s", "1/s"},
    {"hwbar.central.episode_p50_us", "us"},
    {"hwbar.tree.episode_p50_us", "us"},
    {"hwbar.degraded_central.episode_p50_us", "us"},
    {"hwbar.degraded_tree.episode_p50_us", "us"},
    {"hwbar.ft_overhead_central", "ratio"},
    {"hwbar.ft_overhead_tree", "ratio"},
    {"hwbar.wave_share_healthy", "ratio"},
    {"hwbar.degraded_scan_share", "ratio"},
    {"hwbar.deaths", "count"},
    {"hwbar.evictions", "count"},
    {"baseline.central.episode_p50_us", "us"},
    {"baseline.tree.episode_p50_us", "us"},
    {"core.episode_p50_us", "us"},
    {"core.episode_p99_us", "us"},
    {"core.repeat_ratio", "ratio"},
    {"core.engine_ns_per_phase", "ns"},
    {"core.engine_share_of_episode", "ratio"},
    {"mpi.episode_p50_us", "us"},
    {"mpi.episode_p99_us", "us"},
    {"mpi.intolerant.episode_p50_us", "us"},
    {"mpi.ft_overhead", "ratio"},
    {"runtime.sent_per_phase", "msg"},
    {"runtime.delivered_per_phase", "msg"},
    {"runtime.dropped_per_phase", "msg"},
    {"runtime.duplicated_per_phase", "msg"},
    {"runtime.reordered_per_phase", "msg"},
    {"runtime.corrupted_per_phase", "msg"},
    {"core.lossy.episode_p50_us", "us"},
    {"core.lossy.episode_p99_us", "us"},
    {"core.lossy.repeat_ratio", "ratio"},
    {"mpi.lossy.episode_p50_us", "us"},
    {"mpi.lossy.episode_p99_us", "us"},
    {"runtime.lossy.sent_per_phase", "msg"},
    {"runtime.lossy.delivered_per_phase", "msg"},
    {"runtime.lossy.dropped_per_phase", "msg"},
    {"runtime.lossy.duplicated_per_phase", "msg"},
    {"runtime.lossy.reordered_per_phase", "msg"},
    {"runtime.lossy.corrupted_per_phase", "msg"},
    {"check.bundle_s", "s"},
    {"check.explore_s", "s"},
    {"check.states_per_s", "1/s"},
    {"check.dedup_hit_rate", "ratio"},
    {"check.steals", "count"},
    {"check.avg_chunk_fill", "states"},
    {"check.guard_evals_per_state", "ratio"},
    {"check.reexpansions", "count"},
    {"check.reach_s", "s"},
    {"check.cycle_s", "s"},
    {"check.states", "count"},
    {"check.levels", "count"},
    {"trace.overhead_ratio", "ratio"},
    {"peak_rss_mb", "MB"},
    {"error_rate", "ratio"},
};

constexpr const char* kWorkloads[] = {"shm_bsp", "shm_degraded"};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR] [--git-sha SHA]\n",
               why);
  std::exit(2);
}

/// Folds a run of another part of the program into a traced report: its
/// checks, its lines (prefixed with `tag`) and the per-layer metrics of
/// `layers`, the layer name followed by `suffix` ("core.x" becomes
/// "core.lossy.x" for suffix ".lossy"). Its trace.overhead_ratio is left
/// out: the workload's own rounds give that.
void fold(Report& into, Report part, const std::string& tag,
          std::initializer_list<const char*> layers, const char* suffix) {
  into.attempted += part.attempted;
  into.failed += part.failed;
  for (auto& f : part.failures) {
    if (into.failures.size() < 8) into.failures.push_back(tag + f);
  }
  for (const auto& l : part.lines) into.lines.push_back(tag + l);
  for (auto& m : part.per_layer) {
    const std::string layer = m.name.substr(0, m.name.find('.'));
    bool wanted = false;
    for (const char* l : layers) wanted = wanted || layer == l;
    if (!wanted) continue;
    m.name.insert(layer.size(), suffix);
    into.per_layer.push_back(std::move(m));
  }
}

const Metric* find(const std::vector<Metric>& v, const std::string& name) {
  for (const auto& m : v) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

/// Exits the process if the workload has not finished by the deadline, so
/// a hung barrier fails the run instead of hanging it.
class Watchdog {
 public:
  explicit Watchdog(double seconds)
      : thread_([this, seconds] {
          std::unique_lock lock(mutex_);
          if (!cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                            [this] { return done_; })) {
            std::fprintf(stderr, "perfbench: workload still running after "
                                 "%.0f s; giving up\n", seconds);
            std::fflush(stderr);
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: started after the members it uses
};

}  // namespace

void finish_trace(const RunConfig& cfg, const SpanLog& log, Report& report) {
  self_time_table(log, report);
  std::error_code ec;
  std::filesystem::create_directories(cfg.trace_dir, ec);
  const std::string path = cfg.trace_dir + "/" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed) + ".trace.json";
  const bool ok = !ec && write_chrome_trace(log, path);
  report.check(ok, "cannot write trace file " + path);
  report.lines.push_back("chrome trace (Perfetto): " + path + " (" +
                         std::to_string(log.spans.size()) + " spans)");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  cfg.trace_dir = ".bench_build/traces";
  std::string git_sha = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--trace-dir") {
      cfg.trace_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }

  // The checks must have teeth before their verdicts mean anything.
  const int toothless = run_selftest();
  if (toothless != 0) {
    std::fprintf(stderr, "perfbench: %d self-test checks missed a planted "
                         "violation\n", toothless);
    return 3;
  }

  if (!have_workload) usage("--workload is required");
  bool known = false;
  for (const char* w : kWorkloads) known = known || cfg.workload == w;
  if (!known) usage(("unknown workload " + cfg.workload).c_str());
  if (!(cfg.seconds > 0 && cfg.seconds <= 120)) {
    usage("--seconds must be in (0, 120]");
  }

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("# perfbench %s seed=%llu seconds=%g trace=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  std::printf("# git_sha=%s compiler=\"%s\" build_type=%s nproc=%u threads=%d\n",
              git_sha.c_str(), PERFBENCH_COMPILER, build_type.c_str(), nproc,
              kThreads);
#ifndef NDEBUG
  const bool asserts_on = true;
#else
  const bool asserts_on = false;
#endif
  if (build_type != "Release" || asserts_on) {
    std::fprintf(stderr, "perfbench: refusing to record from a %s build "
                         "(Release without assertions required)\n",
                 build_type.c_str());
    return 4;
  }
  if (nproc < static_cast<unsigned>(kThreads)) {
    std::printf("SKIPPED %s: needs %d hardware threads, nproc=%u\n",
                cfg.workload.c_str(), kThreads, nproc);
    return 5;
  }

  Report rep;
  {
    const Watchdog watchdog(std::min(cfg.seconds + 120, 160.0));
    const bool degraded = cfg.workload == "shm_degraded";
    if (!cfg.trace) {
      rep = run_shm_bsp(cfg, degraded);
    } else {
      // The traced run also measures, per layer only, the parts whose wall
      // time follows the host more than the program (see NOTES.md): the
      // message-passing front ends with shm_bsp, the checker with
      // shm_degraded. Neither gives an end-to-end metric.
      RunConfig part = cfg;
      part.seconds = cfg.seconds / 2;
      rep = run_shm_bsp(part, degraded);
      part.workload = cfg.workload + ".";
      if (!degraded) {
        part.seconds = cfg.seconds / 4;
        part.workload += "mp_clean";
        fold(rep, run_mp(part, /*lossy=*/false), "mp_clean: ",
             {"core", "mpi", "runtime"}, "");
        part.workload = cfg.workload + ".mp_lossy";
        fold(rep, run_mp(part, /*lossy=*/true), "mp_lossy: ",
             {"core", "mpi", "runtime"}, ".lossy");
      } else {
        part.workload += "verify_rb16";
        fold(rep, run_verify_rb16(part), "verify_rb16: ", {"check"}, "");
      }
    }
  }
  // Peak memory is per-layer, not end-to-end: the barrier workloads' 5-9 MB
  // resident set moves by +-20% from run to run with nothing changed.
  const double rss_mb = peak_rss_mb();
  rep.lines.push_back("peak_rss_mb " + std::to_string(rss_mb) +
                      " (VmHWM of this process)");
  const double error_rate =
      rep.attempted == 0 ? 1.0
                         : static_cast<double>(rep.failed) /
                               static_cast<double>(rep.attempted);
  if (cfg.trace) {
    rep.layer("peak_rss_mb", rss_mb, "MB", "VmHWM of this process");
    rep.layer("error_rate", error_rate, "ratio");
  }

  // Assemble the reported set in registry order; anything missing or
  // unregistered is a benchmark bug and fails the run.
  std::vector<Metric> out;
  bool complete = true;
  const auto& produced = cfg.trace ? rep.per_layer : rep.end_to_end;
  std::set<std::string> registered;
  const auto take = [&](const MetricDef& d, bool zero_if_absent) {
    registered.insert(d.name);
    if (const Metric* m = find(produced, d.name)) {
      if (m->unit != d.unit) {
        std::fprintf(stderr, "perfbench: %s reported in %s, registered %s\n",
                     d.name, m->unit.c_str(), d.unit);
        complete = false;
      }
      out.push_back(*m);
    } else if (zero_if_absent) {
      out.push_back({d.name, 0, d.unit, "layer not exercised by this workload"});
    } else {
      std::fprintf(stderr, "perfbench: metric %s missing\n", d.name);
      complete = false;
    }
  };
  if (cfg.trace) {
    for (const auto& d : kPerLayer) take(d, true);
  } else {
    for (const auto& d : kEndToEnd) take(d, false);
  }
  for (const auto& m : produced) {
    if (registered.count(m.name) == 0) {
      std::fprintf(stderr, "perfbench: unregistered metric %s\n",
                   m.name.c_str());
      complete = false;
    }
  }
  for (const auto& m : out) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   m.name.c_str());
      complete = false;
    }
  }

  for (const auto& line : rep.lines) std::printf("%s\n", line.c_str());
  std::printf("%-34s %16s  %-6s %s\n", "metric", "value", "unit", "note");
  for (const auto& m : out) {
    std::printf("%-34s %16.6g  %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("attempted=%llu failed=%llu error_rate=%.6g\n",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed), error_rate);
  for (const auto& f : rep.failures) std::printf("FAILED: %s\n", f.c_str());

  const bool correct = complete && rep.failed == 0 && rep.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", out[i].name.c_str(),
                std::isfinite(out[i].value) ? out[i].value : 0.0,
                out[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
