// FaultyRank checking of the BeeGFS substrate (paper §VI generality):
// BeeGFS has no checker of its own. run_checker drives a BeeGFS backend
// through the same check_and_repair driver as Lustre (core/
// check_driver.h): each check scans every server, aggregates, and runs
// the unchanged rank kernel and detector; its repair executor
// translates the detector's FID-level actions into dentry/xattr/
// chunk-file writes.
#pragma once

#include "beegfs/bee_cluster.h"
#include "core/check_driver.h"

namespace faultyrank {

/// Checks `cluster` (and with config.apply_repairs, repairs it: one
/// round, re-checked when verify_after_repair is set).
[[nodiscard]] CheckResult run_checker(BeeCluster& cluster,
                                      const CheckConfig& config = {});

}  // namespace faultyrank
