// Repair convergence for every one of the paper's eight inconsistency
// scenarios: inject → detect → repair → re-check must reach a fully
// consistent filesystem within a bounded number of repair rounds. This
// is the oracle the soak harness reuses (repair_until_clean in
// checker/checker.h), so a scenario that ping-pongs here would wedge
// the soak too.
#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "checker/checker.h"
#include "faults/injector.h"
#include "pfs/changelog.h"
#include "testing/fixtures.h"

namespace faultyrank {
namespace {

class RepairConvergenceTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(RepairConvergenceTest, InjectedFaultRepairsToCleanWithinBudget) {
  LustreCluster cluster = testing::make_populated_cluster(150, 97);
  ChangeLog log;
  cluster.attach_changelog(&log);
  FaultInjector injector(cluster, 97);
  const GroundTruth truth = injector.inject(GetParam());

  OnlineChecker checker(cluster);
  checker.bootstrap();

  const OnlineCheckResult result = repair_until_clean(cluster, checker, 4);
  EXPECT_TRUE(result.verified_consistent) << to_string(truth.scenario) << ": "
                            << result.residual_findings
                            << " findings after "
                            << result.repair_rounds << " repair rounds";
  EXPECT_GE(result.repairs_applied, 1u);
  EXPECT_LE(result.repair_rounds, 3u);
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, RepairConvergenceTest,
                         ::testing::ValuesIn(kAllScenarios),
                         [](const auto& info) {
                           // to_string() uses '/'; gtest names must be
                           // alphanumeric.
                           std::string name = to_string(info.param);
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

/// A file hard-linked twice into the *same* directory owns two LinkEA
/// records; when the directory's DIRENT property is wiped
/// (kUnreferencedNeighborProps), repair must restore one dirent per
/// link. Regression: the executor used to stop at the first entry for
/// the child ("dirent already present"), leaving the second LinkEA
/// edge permanently unpaired — a manual-only finding the convergence
/// loop could never drain. Flushed by the full soak run.
TEST(RepairConvergenceTest, DoubleHardLinkInOneDirectorySurvivesDirentWipe) {
  LustreCluster cluster = testing::make_populated_cluster(50, 7);
  ChangeLog log;
  cluster.attach_changelog(&log);
  const Fid dir = cluster.mkdir_p("/twins");
  const Fid file = cluster.create_file(dir, "f0", 4096);
  cluster.link(file, dir, "l0");  // second name in the same directory

  cluster.find_mdt_inode(dir)->dirents.clear();

  OnlineChecker checker(cluster);
  checker.bootstrap();
  const OnlineCheckResult result = repair_until_clean(cluster, checker, 4);
  EXPECT_TRUE(result.verified_consistent) << result.residual_findings
                            << " findings left after "
                            << result.repair_rounds << " rounds";
  std::size_t entries = 0;
  for (const auto& entry : cluster.find_mdt_inode(dir)->dirents) {
    if (entry.fid == file) ++entries;
  }
  EXPECT_EQ(entries, 2u);
}

/// Mirror of the above: the twice-linked file loses its LinkEA records
/// instead; repair must restore one link per surviving dirent, not
/// declare victory after the first.
TEST(RepairConvergenceTest, DoubleHardLinkInOneDirectorySurvivesLinkEaWipe) {
  LustreCluster cluster = testing::make_populated_cluster(50, 11);
  ChangeLog log;
  cluster.attach_changelog(&log);
  const Fid dir = cluster.mkdir_p("/twins");
  const Fid file = cluster.create_file(dir, "f0", 4096);
  cluster.link(file, dir, "l0");

  cluster.find_mdt_inode(file)->link_ea.clear();

  OnlineChecker checker(cluster);
  checker.bootstrap();
  const OnlineCheckResult result = repair_until_clean(cluster, checker, 4);
  EXPECT_TRUE(result.verified_consistent) << result.residual_findings
                            << " findings left after "
                            << result.repair_rounds << " rounds";
  std::size_t links = 0;
  for (const auto& link : cluster.find_mdt_inode(file)->link_ea) {
    if (link.parent == dir) ++links;
  }
  EXPECT_EQ(links, 2u);
}

/// Several faults at once must also drain — repairs for one finding
/// must not manufacture findings elsewhere (the soak's steady-state
/// invariant, minus the traffic).
TEST(RepairConvergenceTest, MixedCampaignDrainsToClean) {
  LustreCluster cluster = testing::make_populated_cluster(200, 131);
  ChangeLog log;
  cluster.attach_changelog(&log);
  FaultInjector injector(cluster, 131);
  const auto truths = injector.inject_campaign(5);
  ASSERT_EQ(truths.size(), 5u);

  OnlineChecker checker(cluster);
  checker.bootstrap();

  const OnlineCheckResult result = repair_until_clean(cluster, checker, 6);
  EXPECT_TRUE(result.verified_consistent) << result.residual_findings
                            << " findings left after "
                            << result.repair_rounds << " rounds";
}

}  // namespace
}  // namespace faultyrank
