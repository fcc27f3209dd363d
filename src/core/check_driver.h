// The one check → repair → re-check driver (paper Fig. 6). §VI claims
// one rank kernel, detector and repair plan serve any PFS whose scanner
// emits FID-keyed partial graphs; Lustre offline, BeeGFS and the online
// checker are each a backend of this driver. A backend is a
// RepairExecutorBase (apply() writes one action) with one more method,
// `Result check()`, which observes the current state; Result is
// CheckResult or derives from it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/detector.h"
#include "core/faultyrank.h"
#include "core/repair.h"

namespace faultyrank {

struct CheckConfig {
  FaultyRankConfig rank;
  /// Mean-normalized conviction threshold (see DetectorConfig).
  double detection_threshold = 0.4;
  /// Optional pool for the graph build and rank kernel (bit-identical
  /// for any size). Borrowed.
  ThreadPool* pool = nullptr;
  /// Apply the recommended repairs to the file system.
  bool apply_repairs = false;
  /// After repairing, re-check to confirm the repairs converged.
  bool verify_after_repair = false;
};

struct CheckResult {
  /// The first check's ranks, report and graph counts.
  FaultyRankResult ranks;
  DetectionReport report;
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;
  std::uint64_t unpaired_edges = 0;

  /// Every repair attempted, over all rounds, in order.
  std::vector<RepairOutcome> repair_outcomes;
  std::size_t repairs_applied = 0;
  /// Rounds run; each applies the latest check's plan.
  std::size_t repair_rounds = 0;
  /// verify_after_repair is on and the last check found no finding.
  bool verified_consistent = false;
  /// Findings the last check still reported.
  std::size_t residual_findings = 0;
};

/// The backend-independent half of a check: ranks `graph`, detects,
/// and records the graph's counts into `pass`.
void rank_and_detect(const UnifiedGraph& graph, const CheckConfig& config,
                     const Fid& root, const CoverageInfo& coverage,
                     CheckResult& pass);

/// Checks; while findings remain and apply_repairs is on, applies the
/// latest plan and (with verify_after_repair) re-checks, for at most
/// `max_rounds` rounds. A round that applies nothing cannot make the
/// file system cleaner: its re-check is the last. Returns the first
/// check's result with the repair tally and the last check's verdict.
template <class Backend>
auto check_and_repair(Backend& backend, const CheckConfig& config,
                      std::size_t max_rounds = 1) {
  auto result = backend.check();
  decltype(result) recheck;
  const DetectionReport* last = &result.report;
  while (config.apply_repairs && !last->consistent() &&
         result.repair_rounds < max_rounds) {
    ++result.repair_rounds;
    std::size_t applied = 0;
    for (RepairOutcome& outcome : backend.apply_all(last->repair_plan())) {
      if (outcome.applied) ++applied;
      result.repair_outcomes.push_back(std::move(outcome));
    }
    result.repairs_applied += applied;
    if (!config.verify_after_repair) break;
    recheck = backend.check();
    last = &recheck.report;
    if (applied == 0) break;
  }
  result.verified_consistent =
      config.verify_after_repair && last->consistent();
  result.residual_findings = last->findings.size();
  return result;
}

}  // namespace faultyrank
