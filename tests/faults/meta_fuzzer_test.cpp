// Structured metadata fuzzer invariants: the mutation sequence is a
// pure function of (cluster, seed), every applied mutation reports the
// FID set it disturbed, and FaultyRank repairs every fuzzed state back
// to consistency within the crash matrix's round budget.
#include <gtest/gtest.h>

#include "checker/checker.h"
#include "faults/meta_fuzzer.h"
#include "online/online_checker.h"
#include "pfs/persistence.h"
#include "testing/fixtures.h"

namespace faultyrank {
namespace {

LustreCluster make_dne_cluster(std::uint64_t seed) {
  LustreCluster cluster(4, StripePolicy{64 * 1024, -1}, 2);
  NamespaceConfig config;
  config.file_count = 40;
  config.dir_ratio = 0.25;
  config.max_depth = 4;
  config.hardlink_ratio = 0.05;
  config.seed = seed;
  populate_namespace(cluster, config);
  return cluster;
}

TEST(MetaFuzzerTest, CampaignIsDeterministic) {
  LustreCluster first = make_dne_cluster(7);
  LustreCluster second = make_dne_cluster(7);
  const auto a = MetaFuzzer(first, 0xf022).campaign(12);
  const auto b = MetaFuzzer(second, 0xf022).campaign(12);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].description, b[i].description) << i;
    EXPECT_EQ(a[i].touched, b[i].touched) << i;
  }
  // Same mutations on identical clusters leave bit-identical images.
  EXPECT_EQ(serialize_cluster(first), serialize_cluster(second));
}

TEST(MetaFuzzerTest, DifferentSeedsDiverge) {
  LustreCluster first = make_dne_cluster(7);
  LustreCluster second = make_dne_cluster(7);
  (void)MetaFuzzer(first, 1).campaign(8);
  (void)MetaFuzzer(second, 2).campaign(8);
  EXPECT_NE(serialize_cluster(first), serialize_cluster(second));
}

TEST(MetaFuzzerTest, EveryAppliedMutationReportsTouchedFids) {
  for (const FuzzKind kind : kAllFuzzKinds) {
    LustreCluster cluster = make_dne_cluster(11);
    MetaFuzzer fuzzer(cluster, 0xbeef + static_cast<std::uint64_t>(kind));
    const auto record = fuzzer.mutate(kind);
    if (!record.has_value()) continue;  // no eligible victim is legal
    EXPECT_EQ(record->kind, kind);
    EXPECT_FALSE(record->description.empty()) << to_string(kind);
    EXPECT_FALSE(record->touched.empty())
        << to_string(kind) << ": a campaign cannot score false positives "
        << "against an empty ground-truth set";
  }
}

TEST(MetaFuzzerTest, FuzzedStatesConvergeUnderRepair) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    LustreCluster cluster = make_dne_cluster(23);
    MetaFuzzer fuzzer(cluster, seed * 1000003);
    const auto records = fuzzer.campaign(3);
    ASSERT_FALSE(records.empty()) << seed;
    OnlineChecker checker(cluster, {});
    checker.bootstrap();
    const OnlineCheckResult result = repair_until_clean(cluster, checker, 6);
    EXPECT_TRUE(result.verified_consistent)
        << "seed " << seed << ": " << result.residual_findings
        << " residual finding(s) after " << result.repair_rounds
        << " round(s)";
  }
}

}  // namespace
}  // namespace faultyrank
