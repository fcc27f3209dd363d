// Applies detector-recommended repairs to the simulated cluster
// (paper §III-F: "if one node's property is wrong, we find the
// corresponding unpaired node and use its id to overwrite the property;
// if one node's id is wrong … use its property to overwrite the id").
//
// The executor works at the raw-image level: it may need to find an
// object by a *corrupted* LMA fid the OI has never heard of, so lookups
// fall back to full-table scans, and every mutation keeps the OI
// coherent afterwards.
#pragma once

#include <optional>

#include "core/repair.h"
#include "pfs/cluster.h"

namespace faultyrank {

class RepairExecutor : public RepairExecutorBase {
 public:
  explicit RepairExecutor(LustreCluster& cluster) : cluster_(cluster) {}

 protected:
  LustreCluster& cluster_;

 private:
  struct Located {
    LdiskfsImage* image = nullptr;
    Inode* inode = nullptr;
    bool on_mdt = false;
    std::uint32_t ost_index = 0;
  };

  /// Finds the inode currently carrying `fid` on any server, trying the
  /// OIs first and falling back to raw scans.
  [[nodiscard]] std::optional<Located> locate(const Fid& fid);

  RepairOutcome overwrite_id(const RepairAction& action) override;
  RepairOutcome add_back_pointer(const RepairAction& action) override;
  RepairOutcome relink_property(const RepairAction& action) override;
  RepairOutcome remove_reference(const RepairAction& action) override;
  RepairOutcome quarantine(const RepairAction& action) override;
};

}  // namespace faultyrank
