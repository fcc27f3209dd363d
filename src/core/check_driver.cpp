#include "core/check_driver.h"

namespace faultyrank {

RepairOutcome RepairExecutorBase::apply(const RepairAction& action) {
  switch (action.kind) {
    case RepairKind::kOverwriteId: return overwrite_id(action);
    case RepairKind::kAddBackPointer: return add_back_pointer(action);
    case RepairKind::kRelinkProperty: return relink_property(action);
    case RepairKind::kRemoveReference: return remove_reference(action);
    case RepairKind::kQuarantineLostFound: return quarantine(action);
    case RepairKind::kNone: return success(action, "report-only");
  }
  return failure(action, "unknown repair kind");
}

std::vector<RepairOutcome> RepairExecutorBase::apply_all(
    const RepairPlan& plan) {
  std::vector<RepairOutcome> outcomes;
  outcomes.reserve(plan.size());
  for (const RepairAction& action : plan) outcomes.push_back(apply(action));
  return outcomes;
}

void rank_and_detect(const UnifiedGraph& graph, const CheckConfig& config,
                     const Fid& root, const CoverageInfo& coverage,
                     CheckResult& pass) {
  pass.ranks = run_faultyrank(graph, config.rank, config.pool);
  DetectorConfig detector_config;
  detector_config.threshold = config.detection_threshold;
  detector_config.root = root;
  detector_config.coverage = coverage;
  pass.report = detect_inconsistencies(graph, pass.ranks, detector_config);
  pass.vertices = graph.vertex_count();
  pass.edges = graph.edge_count();
  pass.unpaired_edges = graph.unpaired_edges().size();
}

}  // namespace faultyrank
