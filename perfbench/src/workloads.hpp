// The benchmark's workloads. Each builds its rig (timed as set-up), runs
// its closed loop for RunConfig::seconds, checks what the program returned
// and fills a Report; with RunConfig::trace it also records spans and
// reports the per-layer metrics instead of the end-to-end ones.
#pragma once

#include "common.hpp"

namespace perfbench {

/// shm_bsp, or with `degraded` shm_degraded.
Report run_shm_bsp(const RunConfig& cfg, bool degraded);
Report run_mp(const RunConfig& cfg, bool lossy);
Report run_verify_rb16(const RunConfig& cfg);

/// Writes the traced run's spans to cfg.trace_dir and prints the per-layer
/// self-time table into the report.
void finish_trace(const RunConfig& cfg, const SpanLog& log, Report& report);

}  // namespace perfbench
