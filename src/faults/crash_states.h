// B3-style crash-state enumeration over the instrumented namespace ops
// (pfs/crash.h): every multi-sub-update operation — mkdir, create,
// hardlink, unlink, rename — fires a named crash point before each
// sub-update, and crashing at the k-th firing materializes the exact
// half-updated cluster a server crash there would leave on disk.
//
// The enumerator owns one serialized base image; every replica is a
// fresh deserialization, so states are bit-reproducible: the same
// (base, op spec, crash index) always yields the same snapshot bytes.
//
// Recovery model (recover_interrupted): the changelog record is the
// commit point, as in a journaled filesystem. An interrupted op whose
// record reached the log rolls *forward* (the remaining sub-updates are
// completed); one whose record is missing rolls *back* (applied
// sub-updates are undone) — except unlink, whose partial destruction is
// irreversible without an undo journal, so it always rolls forward,
// modelling a logged intent. Either way the namespace lands in a state
// the op sequence itself could have produced, so re-running the op (or
// nothing at all) replays cleanly through the ChangeLog.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "pfs/changelog.h"
#include "pfs/cluster.h"
#include "pfs/crash.h"

namespace faultyrank {

enum class CrashOpKind : std::uint8_t {
  kMkdir = 0,
  kCreate = 1,
  kHardLink = 2,
  kUnlink = 3,
  kRename = 4,
};

[[nodiscard]] const char* to_string(CrashOpKind kind) noexcept;

/// One namespace operation, addressed by paths so it can be replayed
/// against any replica of the same base namespace.
struct CrashOpSpec {
  CrashOpKind kind = CrashOpKind::kMkdir;
  std::string parent_path;  ///< directory the entry appears/disappears in
  std::string name;         ///< entry name under parent_path
  /// kHardLink: path of the existing file; kRename: full old path of
  /// the entry being moved (parent_path/name is the destination).
  std::string src_path;
  std::uint64_t size = 0;   ///< kCreate: file size in bytes

  [[nodiscard]] std::string describe() const;
};

class CrashStateError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A replica that ran `spec` until crash point `crash_index` (or to
/// completion). The attached log holds whatever records the op got to
/// append; `cluster` still points at it.
struct CrashReplica {
  LustreCluster cluster;
  std::unique_ptr<ChangeLog> log;
  std::uint64_t pre_op_cursor = 0;  ///< log next_index before the op
  std::size_t crash_index = 0;
  std::string point{};              ///< "op/point" reached, if crashed
  bool crashed = false;             ///< false: the op ran to completion
};

class CrashStateEnumerator {
 public:
  /// Captures the base namespace by value (serialized once).
  explicit CrashStateEnumerator(const LustreCluster& base);
  explicit CrashStateEnumerator(std::vector<std::uint8_t> base_image);

  /// The crash schedule of one op: every crash-point firing in order,
  /// plus the FIDs a completed run involves (parents, the child, its
  /// stripe objects) — the ground-truth set findings are scored
  /// against. Deterministic, so the FIDs the completed run allocates
  /// are exactly the FIDs any crashed prefix allocates.
  struct Trace {
    std::vector<std::string> points;
    std::vector<Fid> touched;
  };
  [[nodiscard]] Trace trace(const CrashOpSpec& spec) const;

  /// Runs `spec` on a fresh replica, crashing at firing `crash_index`;
  /// pass kRunToCompletion to apply the op fully.
  static constexpr std::size_t kRunToCompletion =
      ~static_cast<std::size_t>(0);
  [[nodiscard]] CrashReplica run_with_crash(const CrashOpSpec& spec,
                                            std::size_t crash_index) const;

  [[nodiscard]] const std::vector<std::uint8_t>& base_image() const noexcept {
    return base_;
  }

 private:
  std::vector<std::uint8_t> base_;
};

enum class RecoveryAction : std::uint8_t {
  kNone = 0,           ///< op was complete; nothing to do
  kRolledForward = 1,  ///< remaining sub-updates were applied
  kRolledBack = 2,     ///< applied sub-updates were undone
};

[[nodiscard]] const char* to_string(RecoveryAction action) noexcept;

/// Journal-style recovery of an op interrupted mid-sequence (see file
/// header). `pre_op_cursor` is the changelog next_index before the op
/// started. Never appends to the log itself.
RecoveryAction recover_interrupted(LustreCluster& cluster,
                                   const ChangeLog& log,
                                   std::uint64_t pre_op_cursor,
                                   const CrashOpSpec& spec);

/// Applies the op described by `spec` to `cluster` (resolving paths
/// against its current namespace). Returns the child/target fid.
Fid apply_crash_op(LustreCluster& cluster, const CrashOpSpec& spec);

}  // namespace faultyrank
