// check_and_repair against a scripted backend: the round budget, the
// stop after a round that applies nothing, the repair and verify
// switches, and which check's ranks and report come back.
#include "core/check_driver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace faultyrank {
namespace {

/// Check i reports findings[min(i, size - 1)] findings, each planning
/// one id overwrite; its ranks carry i as the iteration count. An
/// overwrite applies iff `applies` says so for its target's oid.
class ScriptedBackend final : public RepairExecutorBase {
 public:
  explicit ScriptedBackend(std::vector<std::size_t> findings)
      : findings_(std::move(findings)) {}

  CheckResult check() {
    const std::size_t count =
        findings_[std::min(checks, findings_.size() - 1)];
    CheckResult pass;
    pass.ranks.iterations = checks;
    for (std::uint32_t i = 0; i < count; ++i) {
      Finding finding;
      finding.repair.kind = RepairKind::kOverwriteId;
      finding.repair.target = Fid{1, i, 0};
      finding.repair.value = Fid{2, i, 0};
      pass.report.findings.push_back(finding);
    }
    ++checks;
    return pass;
  }

  bool (*applies)(std::uint64_t oid) = [](std::uint64_t) { return true; };
  std::size_t checks = 0;
  std::size_t writes = 0;

 private:
  RepairOutcome overwrite_id(const RepairAction& action) override {
    ++writes;
    return applies(action.target.oid) ? success(action, "rewritten")
                                      : failure(action, "refused");
  }
  RepairOutcome add_back_pointer(const RepairAction& action) override {
    return failure(action, "unscripted");
  }
  RepairOutcome relink_property(const RepairAction& action) override {
    return failure(action, "unscripted");
  }
  RepairOutcome remove_reference(const RepairAction& action) override {
    return failure(action, "unscripted");
  }
  RepairOutcome quarantine(const RepairAction& action) override {
    return failure(action, "unscripted");
  }

  std::vector<std::size_t> findings_;
};

CheckConfig repair_and_verify() {
  CheckConfig config;
  config.apply_repairs = true;
  config.verify_after_repair = true;
  return config;
}

TEST(CheckDriverTest, RepairsUntilCleanWithinTheBudget) {
  ScriptedBackend backend({3, 2, 0});
  const CheckResult result = check_and_repair(backend, repair_and_verify(), 4);
  EXPECT_EQ(backend.checks, 3u);
  EXPECT_EQ(result.repair_rounds, 2u);
  EXPECT_EQ(result.repairs_applied, 5u);
  EXPECT_EQ(result.repair_outcomes.size(), 5u);
  EXPECT_TRUE(result.verified_consistent);
  EXPECT_EQ(result.residual_findings, 0u);
}

TEST(CheckDriverTest, RoundBudgetBoundsTheRepairs) {
  ScriptedBackend backend({2});
  const CheckResult result = check_and_repair(backend, repair_and_verify(), 3);
  EXPECT_EQ(result.repair_rounds, 3u);
  EXPECT_EQ(backend.checks, 4u);  // the first check + one per round
  EXPECT_EQ(result.repairs_applied, 6u);
  EXPECT_FALSE(result.verified_consistent);
  EXPECT_EQ(result.residual_findings, 2u);
}

TEST(CheckDriverTest, ZeroApplyRoundStopsAfterItsRecheck) {
  ScriptedBackend backend({2});
  backend.applies = [](std::uint64_t) { return false; };
  const CheckResult result = check_and_repair(backend, repair_and_verify(), 4);
  EXPECT_EQ(result.repair_rounds, 1u);
  EXPECT_EQ(backend.checks, 2u);
  EXPECT_EQ(backend.writes, 2u);
  EXPECT_EQ(result.repairs_applied, 0u);
  EXPECT_EQ(result.repair_outcomes.size(), 2u);
  EXPECT_FALSE(result.verified_consistent);
  EXPECT_EQ(result.residual_findings, 2u);
}

TEST(CheckDriverTest, RepairsStayOffWithoutApplyRepairs) {
  ScriptedBackend backend({2, 0});
  CheckConfig config;
  const CheckResult result = check_and_repair(backend, config, 4);
  EXPECT_EQ(backend.checks, 1u);
  EXPECT_EQ(backend.writes, 0u);
  EXPECT_EQ(result.repair_rounds, 0u);
  EXPECT_TRUE(result.repair_outcomes.empty());
  EXPECT_FALSE(result.verified_consistent);
  EXPECT_EQ(result.residual_findings, 2u);
}

TEST(CheckDriverTest, ReturnsTheFirstChecksReportAndRanks) {
  ScriptedBackend backend({3, 1, 0});
  const CheckResult result = check_and_repair(backend, repair_and_verify(), 4);
  EXPECT_EQ(backend.checks, 3u);
  EXPECT_EQ(result.ranks.iterations, 0u);
  EXPECT_EQ(result.report.findings.size(), 3u);
}

TEST(CheckDriverTest, TalliesOnlyAppliedOutcomes) {
  ScriptedBackend backend({4, 0});
  backend.applies = [](std::uint64_t oid) { return oid % 2 == 0; };
  const CheckResult result = check_and_repair(backend, repair_and_verify());
  ASSERT_EQ(result.repair_outcomes.size(), 4u);
  EXPECT_EQ(result.repairs_applied, 2u);
  for (const RepairOutcome& outcome : result.repair_outcomes) {
    EXPECT_EQ(outcome.applied, outcome.action.target.oid % 2 == 0);
  }
}

TEST(CheckDriverTest, RepairWithoutVerifyRunsOneRoundAndNoRecheck) {
  ScriptedBackend backend({2, 0});
  CheckConfig config;
  config.apply_repairs = true;
  const CheckResult result = check_and_repair(backend, config, 4);
  EXPECT_EQ(backend.checks, 1u);
  EXPECT_EQ(result.repair_rounds, 1u);
  EXPECT_EQ(result.repairs_applied, 2u);
  EXPECT_FALSE(result.verified_consistent);
}

TEST(CheckDriverTest, VerifyWithoutRepairReportsTheFirstChecksVerdict) {
  CheckConfig config;
  config.verify_after_repair = true;
  ScriptedBackend dirty({2, 0});
  EXPECT_FALSE(check_and_repair(dirty, config).verified_consistent);
  EXPECT_EQ(dirty.checks, 1u);
  ScriptedBackend clean({0});
  EXPECT_TRUE(check_and_repair(clean, config).verified_consistent);
  EXPECT_EQ(clean.checks, 1u);
}

TEST(CheckDriverTest, CleanFirstCheckRunsNoRound) {
  ScriptedBackend backend({0, 5});
  const CheckResult result = check_and_repair(backend, repair_and_verify(), 4);
  EXPECT_EQ(backend.checks, 1u);
  EXPECT_EQ(result.repair_rounds, 0u);
  EXPECT_TRUE(result.verified_consistent);
}

}  // namespace
}  // namespace faultyrank
