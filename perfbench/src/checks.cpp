#include "checks.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

namespace perfbench {

bool episode_ordered(const std::vector<CallLog>& logs, std::size_t k) {
  std::int64_t latest_start = std::numeric_limits<std::int64_t>::min();
  std::int64_t earliest_end = std::numeric_limits<std::int64_t>::max();
  for (const auto& log : logs) {
    if (k >= log.start_ns.size() || k >= log.end_ns.size()) return false;
    latest_start = std::max(latest_start, log.start_ns[k]);
    earliest_end = std::min(earliest_end, log.end_ns[k]);
  }
  return earliest_end >= latest_start;
}

bool ranks_agree(const std::vector<CallLog>& logs, std::string* why) {
  for (std::size_t t = 1; t < logs.size(); ++t) {
    if (logs[t].phase.size() != logs[0].phase.size()) {
      if (why != nullptr) {
        *why = "thread " + std::to_string(t) + " committed " +
               std::to_string(logs[t].phase.size()) + " phases, thread 0 " +
               std::to_string(logs[0].phase.size());
      }
      return false;
    }
    const auto diff = std::mismatch(logs[t].phase.begin(), logs[t].phase.end(),
                                    logs[0].phase.begin());
    if (diff.first != logs[t].phase.end()) {
      if (why != nullptr) {
        *why = "thread " + std::to_string(t) + " committed phase " +
               std::to_string(*diff.first) + " where thread 0 committed " +
               std::to_string(*diff.second) + " (commit #" +
               std::to_string(diff.first - logs[t].phase.begin()) + ")";
      }
      return false;
    }
  }
  return true;
}

namespace {

std::uint64_t splitmix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

double bsp_block_start(std::uint64_t seed, std::uint64_t block) {
  // Values in [100, 1100): far enough from the fixed point 2 that one
  // missing, extra or garbage step changes the block's final value.
  return 100.0 + static_cast<double>(splitmix(seed ^ (block * 0x51ed27ULL)) % 1000);
}

bool bsp_values_ok(std::uint64_t seed, const std::vector<std::int32_t>& phases,
                   const std::vector<double>& block_end, int modulus,
                   std::string* why) {
  const std::size_t block = kBspBlock;
  const std::size_t blocks = (phases.size() + block - 1) / block;
  if (block_end.size() != blocks) {
    if (why != nullptr) {
      *why = std::to_string(block_end.size()) + " BSP blocks for " +
             std::to_string(phases.size()) + " commits";
    }
    return false;
  }
  std::int32_t before = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    double expect = bsp_block_start(seed, b);
    const std::size_t end = std::min(phases.size(), (b + 1) * block);
    for (std::size_t k = b * block; k < end; ++k) {
      const int steps = ((phases[k] - before) % modulus + modulus) % modulus;
      for (int i = 0; i < steps; ++i) expect = bsp_step(expect);
      before = phases[k];
    }
    if (block_end[b] != expect) {
      if (why != nullptr) {
        char buf[120];
        std::snprintf(buf, sizeof buf,
                      "BSP block %zu ended at %.17g, analytic value %.17g", b,
                      block_end[b], expect);
        *why = buf;
      }
      return false;
    }
  }
  return true;
}

bool verdict_ok(const VerdictSeen& seen, const VerdictExpect& expect,
                std::string* why) {
  std::string w;
  if (!seen.clean) w = "exploration truncated or reported a violation";
  else if (seen.states != expect.states)
    w = "states " + std::to_string(seen.states) + " != " +
        std::to_string(expect.states);
  else if (seen.levels != expect.levels)
    w = "levels " + std::to_string(seen.levels) + " != " +
        std::to_string(expect.levels);
  else if (!seen.reachable) w = "legit_reachable_from_all returned false";
  else if (!seen.converges) w = "converges_outside returned false";
  else if (seen.fingerprint != expect.fingerprint) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "digest fingerprint %016llx != %016llx",
                  static_cast<unsigned long long>(seen.fingerprint),
                  static_cast<unsigned long long>(expect.fingerprint));
    w = buf;
  }
  if (why != nullptr) *why = w;
  return w.empty();
}

std::uint64_t fingerprint(const std::vector<std::uint64_t>& words) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint64_t w : words) {
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

namespace {

std::vector<CallLog> clean_logs() {
  std::vector<CallLog> logs(4);
  for (int t = 0; t < 4; ++t) {
    for (int k = 0; k < 3; ++k) {
      logs[t].start_ns.push_back(1000 * k + t);
      logs[t].end_ns.push_back(1000 * k + 500 + t);
      logs[t].phase.push_back(k + 1);
    }
  }
  return logs;
}

/// What a thread's BSP loop records when the barrier returns `phases`,
/// stepping its value once per commit as the real loop does; commit
/// `garbage_at` (if any) commits a lost superstep as if it were good.
struct BspRecord {
  std::vector<std::int32_t> phases;
  std::vector<double> block_end;
};

BspRecord bsp_record(std::vector<std::int32_t> phases, int garbage_at = -1) {
  BspRecord r;
  double x = bsp_block_start(7, 0);
  for (std::size_t k = 0; k < phases.size(); ++k) {
    x = static_cast<int>(k) == garbage_at ? -12345.0 : bsp_step(x);
    if ((k + 1) % kBspBlock == 0) {
      r.block_end.push_back(x);
      x = bsp_block_start(7, r.block_end.size());
    }
  }
  if (phases.size() % kBspBlock != 0) r.block_end.push_back(x);
  r.phases = std::move(phases);
  return r;
}

/// Phases of `n` commits from a fresh barrier counting modulo 64: commit k
/// returns k + 1, plus `shift` from commit `from` on.
std::vector<std::int32_t> bsp_phases(int n, int from = 0, int shift = 0) {
  std::vector<std::int32_t> p;
  for (int k = 0; k < n; ++k) p.push_back((k + 1 + (k >= from ? shift : 0)) % 64);
  return p;
}

bool bsp_ok(const BspRecord& r) {
  return bsp_values_ok(7, r.phases, r.block_end, 64, nullptr);
}

/// One self-test case: the check must pass on `clean` and fail on
/// `planted`.
int expect_caught(const char* name, bool clean_passes, bool planted_passes) {
  const bool good = clean_passes && !planted_passes;
  std::printf("selftest %-28s %s\n", name,
              good ? "caught" : "NOT CAUGHT (check is toothless)");
  return good ? 0 : 1;
}

}  // namespace

int run_selftest() {
  int bad = 0;
  {
    auto planted = clean_logs();
    planted[2].end_ns[1] = planted[3].start_ns[1] - 1;  // returned too early
    bad += expect_caught("episode_ordered", episode_ordered(clean_logs(), 1),
                         episode_ordered(planted, 1));
  }
  {
    auto planted = clean_logs();
    planted[1].phase[2] = 7;
    bad += expect_caught("ranks_agree", ranks_agree(clean_logs(), nullptr),
                         ranks_agree(planted, nullptr));
    auto short_log = clean_logs();
    short_log[3].phase.pop_back();
    bad += expect_caught("ranks_agree.count", true,
                         ranks_agree(short_log, nullptr));
  }
  {
    // 70 commits: three blocks, the last one short, phases wrapping at 64.
    const bool clean = bsp_ok(bsp_record(bsp_phases(70)));
    bad += expect_caught("bsp_values_ok.garbage", clean,
                         bsp_ok(bsp_record(bsp_phases(70), 40)));
    bad += expect_caught("bsp_values_ok.skipped_phase", clean,
                         bsp_ok(bsp_record(bsp_phases(70, 10, 1))));
    bad += expect_caught("bsp_values_ok.phase_twice", clean,
                         bsp_ok(bsp_record(bsp_phases(70, 10, -1))));
  }
  {
    bad += expect_caught("no_failures_declared", no_failures_declared(0, 0),
                         no_failures_declared(1, 0));
    bad += expect_caught("no_failures_declared.evict", true,
                         no_failures_declared(0, 1));
  }
  {
    const VerdictExpect expect{10, 3, 0xabcdef};
    const VerdictSeen clean{10, 3, true, true, true, 0xabcdef};
    const auto plant = [&](auto mutate) {
      VerdictSeen s = clean;
      mutate(s);
      return verdict_ok(s, expect, nullptr);
    };
    const bool ok = verdict_ok(clean, expect, nullptr);
    bad += expect_caught("verdict_ok.states", ok,
                         plant([](VerdictSeen& s) { s.states = 11; }));
    bad += expect_caught("verdict_ok.levels", ok,
                         plant([](VerdictSeen& s) { s.levels = 2; }));
    bad += expect_caught("verdict_ok.converges", ok,
                         plant([](VerdictSeen& s) { s.converges = false; }));
    bad += expect_caught("verdict_ok.reachable", ok,
                         plant([](VerdictSeen& s) { s.reachable = false; }));
    bad += expect_caught("verdict_ok.fingerprint", ok,
                         plant([](VerdictSeen& s) { s.fingerprint ^= 1; }));
  }
  return bad;
}

}  // namespace perfbench
