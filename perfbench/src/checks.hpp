// Output checks of the benchmark. Each is a pure function over what a
// workload recorded, so the self-test can plant one violation per check
// and require it to be caught.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One thread's committed barrier calls in one segment: the k-th entry is
/// the call that returned the thread's k-th committed (non-repeated)
/// release. `phase` is the ticket's phase where the barrier reports one.
struct CallLog {
  std::vector<std::int64_t> start_ns;
  std::vector<std::int64_t> end_ns;
  std::vector<std::int32_t> phase;

  void reserve(std::size_t n) {
    start_ns.reserve(n);
    end_ns.reserve(n);
    phase.reserve(n);
  }
  void clear() {
    start_ns.clear();
    end_ns.clear();
    phase.clear();
  }
};

/// Barrier contract for episode k: no thread's return precedes any
/// thread's pre-call timestamp.
[[nodiscard]] bool episode_ordered(const std::vector<CallLog>& logs,
                                   std::size_t k);

/// Every thread committed the same number of phases and the same phase
/// sequence. On failure `why` names the first disagreement.
[[nodiscard]] bool ranks_agree(const std::vector<CallLog>& logs,
                               std::string* why);

/// A fault-free run must see no participant declared dead or evicted.
[[nodiscard]] inline bool no_failures_declared(std::uint64_t deaths,
                                               std::uint64_t evictions) {
  return deaths == 0 && evictions == 0;
}

/// The BSP superstep value of examples/mpi_style_bsp.cpp: x <- x/2 + 1.
[[nodiscard]] inline double bsp_step(double x) noexcept { return 0.5 * x + 1.0; }

/// Committed supersteps between two value checks.
inline constexpr int kBspBlock = 32;

/// Start value of BSP block `block` of thread-independent stream `seed`.
[[nodiscard]] double bsp_block_start(std::uint64_t seed, std::uint64_t block);

/// Checks one thread's BSP values over a segment. The thread starts block
/// b at bsp_block_start(seed, b) and steps its value once per committed
/// superstep; `block_end[b]` is the value it held after the block's
/// kBspBlock commits (the last block may be shorter). How many supersteps
/// the block must have taken is read from the phase numbers the barrier
/// returned, one per commit in `phases`: the forward distance, modulo
/// `modulus`, from the phase before each commit to the committed one,
/// counting the first from phase 0, which a fresh barrier releases at
/// construction. A garbage superstep committed instead of repeated, or a
/// phase the barrier skipped or released twice, leaves a value off. On
/// failure `why` names the first bad block.
[[nodiscard]] bool bsp_values_ok(std::uint64_t seed,
                                 const std::vector<std::int32_t>& phases,
                                 const std::vector<double>& block_end,
                                 int modulus, std::string* why);

/// Expected outcome of the verify_rb16 verdict.
struct VerdictExpect {
  std::size_t states = 1'400'845;
  std::size_t levels = 63;
  std::uint64_t fingerprint = 0;  ///< FNV-1a over sorted_digests()
};

struct VerdictSeen {
  std::size_t states = 0;
  std::size_t levels = 0;
  bool clean = false;  ///< no violation, not truncated
  bool reachable = false;
  bool converges = false;
  std::uint64_t fingerprint = 0;
};

[[nodiscard]] bool verdict_ok(const VerdictSeen& seen,
                              const VerdictExpect& expect, std::string* why);

/// FNV-1a over a sequence of 64-bit words (little-endian bytes).
[[nodiscard]] std::uint64_t fingerprint(const std::vector<std::uint64_t>& words);

/// Feeds each check one planted violation (and one clean input) and
/// returns the number of checks that failed to behave; 0 means every
/// planted violation was caught. Prints one line per check.
int run_selftest();

}  // namespace perfbench
