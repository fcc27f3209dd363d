// Crash-state enumeration invariants (DESIGN.md §15): every crash
// prefix is bit-reproducible from (base, op spec, crash index), the
// trace's schedule matches what the replicas actually hit, and
// journal-style recovery lands every interrupted op in a consistent
// namespace the op sequence itself could have produced.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "checker/checker.h"
#include "faults/crash_states.h"
#include "online/online_checker.h"
#include "pfs/persistence.h"
#include "workload/namespace_gen.h"

namespace faultyrank {
namespace {

LustreCluster make_base() {
  LustreCluster cluster(4, StripePolicy{64 * 1024, -1}, 2);
  NamespaceConfig config;
  config.file_count = 24;
  config.dir_ratio = 0.25;
  config.max_depth = 4;
  config.hardlink_ratio = 0.05;
  config.seed = 20260808;
  populate_namespace(cluster, config);
  return cluster;
}

std::string join(const std::string& parent, const std::string& name) {
  return parent == "/" ? "/" + name : parent + "/" + name;
}

/// One spec per op kind, resolved against the generated namespace: a
/// file and a directory discovered by walking the root.
std::vector<CrashOpSpec> make_specs(const LustreCluster& cluster) {
  std::string file_name, dir_path;
  const Inode* root = cluster.stat(cluster.root());
  for (const auto& entry : root->dirents) {
    if (entry.name == ".lustre") continue;
    const Inode* child = cluster.stat(entry.fid);
    if (child == nullptr) continue;
    if (child->type == InodeType::kRegular && file_name.empty()) {
      file_name = entry.name;
    }
    if (child->type == InodeType::kDirectory && dir_path.empty()) {
      dir_path = "/" + entry.name;
    }
  }
  EXPECT_FALSE(file_name.empty());
  EXPECT_FALSE(dir_path.empty());
  return {
      {CrashOpKind::kMkdir, "/", "cs_dir", "", 0},
      {CrashOpKind::kCreate, dir_path, "cs_file", "", 130 * 1024},
      {CrashOpKind::kHardLink, dir_path, "cs_link", "/" + file_name, 0},
      {CrashOpKind::kUnlink, "/", file_name, "", 0},
      {CrashOpKind::kRename, dir_path, "cs_moved", "/" + file_name, 0},
  };
}

bool judge_consistent(LustreCluster& cluster) {
  OnlineChecker judge(cluster, {});
  judge.bootstrap();
  return judge.check().report.consistent();
}

bool path_resolves(const LustreCluster& cluster, const std::string& path) {
  try {
    (void)cluster.resolve(path);
    return true;
  } catch (const ClusterError&) {
    return false;
  }
}

TEST(CrashStateDeterminismTest, TraceIsStableAndMatchesReplicas) {
  const LustreCluster base = make_base();
  const CrashStateEnumerator enumerator(base);
  for (const CrashOpSpec& spec : make_specs(base)) {
    const auto first = enumerator.trace(spec);
    const auto second = enumerator.trace(spec);
    EXPECT_EQ(first.points, second.points) << spec.describe();
    EXPECT_EQ(first.touched, second.touched) << spec.describe();
    ASSERT_FALSE(first.points.empty()) << spec.describe();
    ASSERT_FALSE(first.touched.empty()) << spec.describe();

    for (std::size_t k = 0; k < first.points.size(); ++k) {
      const CrashReplica replica = enumerator.run_with_crash(spec, k);
      EXPECT_TRUE(replica.crashed);
      EXPECT_EQ(replica.point, first.points[k]) << spec.describe();
    }
    const CrashReplica full = enumerator.run_with_crash(
        spec, CrashStateEnumerator::kRunToCompletion);
    EXPECT_FALSE(full.crashed) << spec.describe();
  }
}

TEST(CrashStateDeterminismTest, SameCrashIndexIsBitIdentical) {
  const LustreCluster base = make_base();
  // Two independent enumerators over the same base must materialize
  // byte-identical states for every (spec, crash index) — reproducing a
  // campaign state from its plan depends on it.
  const CrashStateEnumerator first(base);
  const CrashStateEnumerator second(base);
  EXPECT_EQ(first.base_image(), second.base_image());
  for (const CrashOpSpec& spec : make_specs(base)) {
    const auto trace = first.trace(spec);
    for (const std::size_t k :
         {std::size_t{0}, trace.points.size() / 2, trace.points.size() - 1}) {
      CrashReplica a = first.run_with_crash(spec, k);
      CrashReplica b = second.run_with_crash(spec, k);
      a.cluster.attach_changelog(nullptr);
      b.cluster.attach_changelog(nullptr);
      EXPECT_EQ(serialize_cluster(a.cluster), serialize_cluster(b.cluster))
          << spec.describe() << " @" << k;
    }
  }
}

TEST(CrashRecoveryTest, EveryCrashPrefixRecoversToConsistency) {
  const LustreCluster base = make_base();
  const CrashStateEnumerator enumerator(base);
  for (const CrashOpSpec& spec : make_specs(base)) {
    const auto trace = enumerator.trace(spec);
    for (std::size_t k = 0; k < trace.points.size(); ++k) {
      CrashReplica replica = enumerator.run_with_crash(spec, k);
      const RecoveryAction action = recover_interrupted(
          replica.cluster, *replica.log, replica.pre_op_cursor, spec);
      if (action == RecoveryAction::kRolledBack) {
        // The op vanished entirely; resuming means simply re-running
        // it, which must succeed and append to the log as usual.
        const std::uint64_t before = replica.log->next_index();
        (void)apply_crash_op(replica.cluster, spec);
        EXPECT_GT(replica.log->next_index(), before)
            << spec.describe() << " @" << trace.points[k];
      }

      // Whatever the recovery direction, the namespace now reflects the
      // completed op.
      const std::string dest = join(spec.parent_path, spec.name);
      switch (spec.kind) {
        case CrashOpKind::kMkdir:
        case CrashOpKind::kCreate:
          EXPECT_TRUE(path_resolves(replica.cluster, dest))
              << spec.describe() << " @" << trace.points[k];
          break;
        case CrashOpKind::kHardLink:
          EXPECT_TRUE(path_resolves(replica.cluster, dest));
          EXPECT_TRUE(path_resolves(replica.cluster, spec.src_path));
          break;
        case CrashOpKind::kUnlink:
          EXPECT_FALSE(path_resolves(replica.cluster, dest))
              << spec.describe() << " @" << trace.points[k];
          break;
        case CrashOpKind::kRename:
          EXPECT_TRUE(path_resolves(replica.cluster, dest));
          EXPECT_FALSE(path_resolves(replica.cluster, spec.src_path));
          break;
      }

      replica.cluster.attach_changelog(nullptr);
      EXPECT_TRUE(judge_consistent(replica.cluster))
          << spec.describe() << " @" << trace.points[k] << " after "
          << to_string(action);
    }
  }
}

TEST(CrashRecoveryTest, CompletedOpNeedsNoRecovery) {
  const LustreCluster base = make_base();
  const CrashStateEnumerator enumerator(base);
  for (const CrashOpSpec& spec : make_specs(base)) {
    CrashReplica replica = enumerator.run_with_crash(
        spec, CrashStateEnumerator::kRunToCompletion);
    ASSERT_FALSE(replica.crashed);
    const std::vector<std::uint8_t> before =
        serialize_cluster(replica.cluster);
    const RecoveryAction action = recover_interrupted(
        replica.cluster, *replica.log, replica.pre_op_cursor, spec);
    EXPECT_EQ(action, RecoveryAction::kNone) << spec.describe();
    EXPECT_EQ(serialize_cluster(replica.cluster), before)
        << spec.describe() << ": recovery of a completed op must be a no-op";
  }
}

TEST(CrashStateConvergenceTest, FaultyRankConvergesOnEveryPrefix) {
  // The crash matrix gates this over thousands of states; this is the
  // always-on slice — every prefix of every op on one base.
  const LustreCluster base = make_base();
  const CrashStateEnumerator enumerator(base);
  for (const CrashOpSpec& spec : make_specs(base)) {
    const auto trace = enumerator.trace(spec);
    for (std::size_t k = 0; k < trace.points.size(); ++k) {
      CrashReplica replica = enumerator.run_with_crash(spec, k);
      replica.cluster.attach_changelog(nullptr);
      OnlineChecker checker(replica.cluster, {});
      checker.bootstrap();
      const OnlineCheckResult result =
          repair_until_clean(replica.cluster, checker, 6);
      EXPECT_TRUE(result.verified_consistent)
          << spec.describe() << " @" << trace.points[k] << ": "
          << result.residual_findings << " residual finding(s)";
    }
  }
}

}  // namespace
}  // namespace faultyrank
