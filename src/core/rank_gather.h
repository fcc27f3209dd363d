// The canonical per-vertex gather tree shared by both rank kernels
// (DESIGN.md §14).
//
// A vertex's gather Σ rank[target(slot)]·coeff[slot] is accumulated
// into kGatherLanes = 4 independent partial sums by relative slot
// position modulo 4, then combined pairwise as
// (l0 + l2) + (l1 + l3). The four independent accumulators break the
// serial add dependency of a single running sum. Because the plan
// kernel calls gather_scalar and the naive reference kernel inlines the
// same lane loop, planned-vs-reference stay bit-identical. Two
// provisos, both enforced by the build: no FMA contraction
// (rank·coeff must round before the add — the whole project compiles
// with -ffp-contract=off), and skipped zero-coefficient terms must be
// exact +0.0 adds, which are no-ops on the non-negative partial sums
// these kernels produce.
#pragma once

#include <cstddef>
#include <cstdint>

#include "graph/types.h"

namespace faultyrank::detail {

inline constexpr std::size_t kGatherLanes = 4;

/// The canonical tree over one vertex's slots. Header-inline so the
/// kernel's inner loop sees through it.
[[nodiscard]] inline double gather_scalar(const Gid* targets,
                                          const double* coeff,
                                          std::uint64_t count,
                                          const double* rank) noexcept {
  double lanes[kGatherLanes] = {};
  for (std::uint64_t i = 0; i < count; ++i) {
    lanes[i % kGatherLanes] += rank[targets[i]] * coeff[i];
  }
  return (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
}

}  // namespace faultyrank::detail
