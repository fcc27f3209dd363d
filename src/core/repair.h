// Repair actions recommended by the detector (paper §III-F).
//
// Actions are expressed against FIDs, not PFS internals, so the planner
// stays file-system-agnostic. One executor per file system (Lustre's
// RepairExecutor, the BeeGFS backend's) derives from RepairExecutorBase
// and translates each kind into concrete writes on its cluster.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/fid.h"
#include "graph/types.h"

namespace faultyrank {

enum class RepairKind : std::uint8_t {
  /// Rewrite `target`'s stored object id to `value` (the id its
  /// neighbours expect). Used when id_rank convicts the id.
  kOverwriteId,
  /// Add (or restore) a property entry on `target` pointing to `value`
  /// with `edge_kind` (e.g. re-create a lost LinkEA or LOVEA slot).
  kAddBackPointer,
  /// Replace the property entry on `target` that currently references
  /// `stale` so that it references `value` instead.
  kRelinkProperty,
  /// Remove the property entry on `target` that references `value`
  /// (duplicate or fabricated reference).
  kRemoveReference,
  /// Move object `target` into lost+found — the fallback when the
  /// evidence cannot determine an owner (and what LFSCK does eagerly).
  kQuarantineLostFound,
  /// Report-only: inconsistency observed but no repair is justified.
  kNone,
};

[[nodiscard]] constexpr const char* to_string(RepairKind kind) noexcept {
  switch (kind) {
    case RepairKind::kOverwriteId: return "overwrite-id";
    case RepairKind::kAddBackPointer: return "add-back-pointer";
    case RepairKind::kRelinkProperty: return "relink-property";
    case RepairKind::kRemoveReference: return "remove-reference";
    case RepairKind::kQuarantineLostFound: return "lost+found";
    case RepairKind::kNone: return "none";
  }
  return "?";
}

struct RepairAction {
  RepairKind kind = RepairKind::kNone;
  Fid target;                              ///< object being modified
  Fid value;                               ///< new/expected reference
  Fid stale;                               ///< old reference (kRelinkProperty)
  EdgeKind edge_kind = EdgeKind::kGeneric; ///< which property is touched
  /// Disambiguator for kOverwriteId when two physical objects share the
  /// target id (Double Reference): pick the object whose point-back
  /// references this owner.
  Fid owner_hint;
  std::string note;                        ///< human-readable rationale

  friend bool operator==(const RepairAction& a, const RepairAction& b) {
    return a.kind == b.kind && a.target == b.target && a.value == b.value &&
           a.stale == b.stale && a.edge_kind == b.edge_kind &&
           a.owner_hint == b.owner_hint;
  }
};

using RepairPlan = std::vector<RepairAction>;

/// What a repair executor (Lustre or BeeGFS) did with one action:
/// whether it was applied, and what was written or why it was refused.
struct RepairOutcome {
  RepairAction action;
  bool applied = false;
  std::string detail;
};

/// Base of the per-file-system repair executors: apply() dispatches an
/// action on its kind to the subclass's writer for that kind.
class RepairExecutorBase {
 public:
  /// Applies one action; never throws — failures come back as
  /// applied=false with a reason. Virtual so that a check backend can
  /// act before the first write (Lustre's undo snapshot).
  virtual RepairOutcome apply(const RepairAction& action);

  /// Applies every action of `plan`, in order.
  std::vector<RepairOutcome> apply_all(const RepairPlan& plan);

 protected:
  static RepairOutcome success(const RepairAction& action, std::string detail) {
    return {action, true, std::move(detail)};
  }
  static RepairOutcome failure(const RepairAction& action, std::string detail) {
    return {action, false, std::move(detail)};
  }

 private:
  virtual RepairOutcome overwrite_id(const RepairAction& action) = 0;
  virtual RepairOutcome add_back_pointer(const RepairAction& action) = 0;
  virtual RepairOutcome relink_property(const RepairAction& action) = 0;
  virtual RepairOutcome remove_reference(const RepairAction& action) = 0;
  virtual RepairOutcome quarantine(const RepairAction& action) = 0;
};

}  // namespace faultyrank
