// offline_lanl — one full offline check with repair on a LANL-shaped
// image larger than the last-level cache (README.md, "Workloads").
//
// Set-up: LustreCluster(8 OSTs, 64 KiB × all stripes), populate the
// namespace, plant all eight Fig. 7 scenarios, save a pristine image.
// Operation: what `faultyrank_fsck check --repair --undo` runs —
// load_cluster, run_checker (repair, verify, undo capture), save_cluster
// to a separate output path. The pristine image is never repaired.
//
// The traced operation re-composes run_checker from the same public
// calls in the same order, so its top-level spans tile the operation;
// a probe root span then splits the graph layer (scan, wire encode and
// decode, aggregate, intern, CSR) and the core layer (plan, iterations)
// on a fresh load of the same pristine image.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "checker/checker.h"
#include "checker/repair_executor.h"
#include "common/thread_pool.h"
#include "core/propagation_plan.h"
#include "faults/injector.h"
#include "graph/vertex_table.h"
#include "pfs/persistence.h"
#include "scanner/scanner.h"
#include "workload/namespace_gen.h"

namespace perfbench {

using namespace faultyrank;

namespace {

struct Size {
  std::size_t osts;
  std::uint64_t files;
};

struct Setup {
  std::vector<GroundTruth> truths;
  NamespaceStats stats;
};

Setup build_image(const Options& options, const Size& size,
                  const std::string& pristine) {
  Setup setup;
  LustreCluster cluster(size.osts, StripePolicy{64 * 1024, -1});
  NamespaceConfig ns;
  ns.file_count = size.files;
  ns.seed = derive_seed(options.seed, 1);
  setup.stats = populate_namespace(cluster, ns);
  FaultInjector injector(cluster, derive_seed(options.seed, 2));
  for (const Scenario scenario : FaultInjector::scenario_list()) {
    setup.truths.push_back(injector.inject(scenario));
  }
  save_cluster(cluster, pristine);
  return setup;
}

/// What one check reported, for the oracles and the exact-repeat counts.
struct Outcome {
  double wall = 0.0;
  double graph_wall = 0.0;
  double fr_wall = 0.0;
  double io_sim = 0.0;
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;
  std::uint64_t graph_bytes = 0;
  std::uint64_t iterations = 0;
  std::uint64_t findings = 0;
  std::uint64_t repairs_attempted = 0;
  std::uint64_t repairs_applied = 0;
  std::uint64_t undo_bytes = 0;
  std::uint64_t wire_bytes = 0;  ///< traced operation only
  bool verified = false;
};

/// Output oracles: every planted victim detected, the repaired cluster
/// verified consistent, and every victim restored.
void judge(const Outcome& outcome, const DetectionReport& report,
           const LustreCluster& repaired, const std::vector<GroundTruth>& truths,
           RunResult& result) {
  for (const GroundTruth& truth : truths) {
    if (!evaluate_report(report, truth).detected) {
      result.fail(std::string("victim undetected: ") + to_string(truth.scenario));
      return;
    }
  }
  if (!outcome.verified) {
    result.fail("re-check after repair not consistent");
    return;
  }
  for (const GroundTruth& truth : truths) {
    if (!verify_restored(repaired, truth)) {
      result.fail(std::string("victim not restored: ") + to_string(truth.scenario));
      return;
    }
  }
}

Outcome check_untraced(const std::string& pristine, const std::string& output,
                       ThreadPool& pool, const std::vector<GroundTruth>& truths,
                       RunResult& result) {
  Outcome out;
  const auto start = std::chrono::steady_clock::now();
  LustreCluster cluster = load_cluster(pristine);
  CheckerConfig config;
  config.pool = &pool;
  config.apply_repairs = true;
  config.verify_after_repair = true;
  config.capture_undo = true;
  const CheckerResult checked = run_checker(cluster, config);
  save_cluster(cluster, output);
  out.wall = seconds_since(start);

  out.graph_wall = checked.timings.t_graph_wall;
  out.fr_wall = checked.timings.t_fr_wall;
  out.io_sim = checked.timings.t_scan_sim + checked.timings.t_graph_sim;
  out.vertices = checked.vertices;
  out.edges = checked.edges;
  out.graph_bytes = checked.graph_bytes;
  out.iterations = checked.ranks.iterations;
  out.findings = checked.report.findings.size();
  out.repairs_attempted = checked.repair_outcomes.size();
  out.repairs_applied = checked.repairs_applied;
  out.undo_bytes = checked.undo_image.size();
  out.verified = checked.verified_consistent;
  judge(out, checked.report, cluster, truths, result);
  return out;
}

/// run_checker's pass, span by span.
struct Pass {
  DetectionReport report;
  std::uint64_t iterations = 0;
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;
  std::uint64_t wire_bytes = 0;
  double io_sim = 0.0;
};

Pass traced_pass(const LustreCluster& cluster, ThreadPool& pool, Trace& trace,
                 bool first) {
  Pass pass;
  const CheckerConfig defaults;
  PipelineConfig pipeline_config;
  pipeline_config.pool = &pool;
  const PipelineResult pipeline = trace.span(
      "aggregator", "scan_and_aggregate",
      first ? "aggregator.pipeline_s" : nullptr,
      [&] { return scan_and_aggregate(cluster, pipeline_config); });
  const FaultyRankResult ranks =
      trace.span("core", "run_faultyrank", nullptr, [&] {
        return run_faultyrank(pipeline.agg.graph, defaults.rank, &pool);
      });
  DetectorConfig detector_config;
  detector_config.threshold = defaults.detection_threshold;
  detector_config.root = cluster.root();
  detector_config.coverage = pipeline.agg.coverage;
  pass.report = trace.span(
      "core", "detect_inconsistencies", first ? "core.detect_s" : nullptr, [&] {
        return detect_inconsistencies(pipeline.agg.graph, ranks,
                                      detector_config);
      });
  pass.iterations = ranks.iterations;
  pass.vertices = pipeline.agg.graph.vertex_count();
  pass.edges = pipeline.agg.graph.edge_count();
  pass.wire_bytes = pipeline.agg.transferred_bytes;
  pass.io_sim = pipeline.scan.sim_seconds +
                std::max(0.0, pipeline.agg.sim_pipeline_seconds -
                                  pipeline.scan.sim_seconds);
  return pass;
}

Outcome check_traced(const std::string& pristine, const std::string& output,
                     ThreadPool& pool, Trace& trace,
                     const std::vector<GroundTruth>& truths, RunResult& result) {
  Outcome out;
  // Declared outside the root span so that, as in the untraced
  // operation, freeing them is not timed.
  std::optional<LustreCluster> loaded;
  Pass pass;
  std::vector<std::uint8_t> undo;
  trace.span("op", "offline_lanl.check", nullptr, [&] {
    LustreCluster& cluster = loaded.emplace(trace.span(
        "pfs", "load_cluster", "pfs.load_s", [&] { return load_cluster(pristine); }));
    pass = traced_pass(cluster, pool, trace, /*first=*/true);
    if (!pass.report.consistent()) {
      undo = trace.span("pfs", "serialize_cluster", "pfs.undo_snapshot_s",
                        [&] { return serialize_cluster(cluster); });
      RepairExecutor executor(cluster);
      const std::vector<RepairOutcome> outcomes =
          trace.span("checker", "apply_all", "checker.repair_s", [&] {
            return executor.apply_all(pass.report.repair_plan());
          });
      out.repairs_attempted = outcomes.size();
      for (const RepairOutcome& outcome : outcomes) {
        if (outcome.applied) ++out.repairs_applied;
      }
      out.verified = trace.span(
          "checker", "verify_pass", "checker.verify_pass_s", [&] {
            return traced_pass(cluster, pool, trace, /*first=*/false)
                .report.consistent();
          });
    } else {
      out.verified = true;
    }
    trace.span("pfs", "save_cluster", "pfs.save_s",
               [&] { save_cluster(cluster, output); });
  });
  out.iterations = pass.iterations;
  out.vertices = pass.vertices;
  out.edges = pass.edges;
  out.wire_bytes = pass.wire_bytes;
  out.io_sim = pass.io_sim;
  out.findings = pass.report.findings.size();
  out.undo_bytes = undo.size();
  judge(out, pass.report, *loaded, truths, result);
  return out;
}

/// Probe metrics that are counts, not span times.
struct ProbeCounts {
  double scan_sim = 0.0;
  std::uint64_t inodes = 0;
  std::uint64_t graph_bytes = 0;
  std::uint64_t plan_bytes = 0;
  std::uint64_t edges = 0;
  std::uint64_t iterations = 0;
};

/// Splits the graph and core layers of one check on the pristine image.
ProbeCounts probe(const std::string& pristine, ThreadPool& pool, Trace& trace) {
  ProbeCounts counts;
  trace.span("probe", "offline_lanl.probe", nullptr, [&] {
    std::vector<PartialGraph> partials;
    {
      const LustreCluster cluster = trace.span(
          "pfs", "load_cluster", nullptr, [&] { return load_cluster(pristine); });
      const ClusterScan scan = trace.span(
          "scanner", "scan_cluster", "scanner.scan_s",
          [&] { return scan_cluster(cluster, &pool); });
      counts.scan_sim = scan.sim_seconds;
      counts.inodes = scan.inodes_scanned;
      partials.resize(scan.results.size());
      for (std::size_t i = 0; i < scan.results.size(); ++i) {
        const ScanResult& server = scan.results[i];
        if (server.local_to_mds) {
          partials[i] = server.graph;
          continue;
        }
        const std::vector<std::uint8_t> bytes = trace.span(
            "aggregator", "serialize", "aggregator.encode_s",
            [&] { return server.graph.serialize(); });
        partials[i] = trace.span("aggregator", "deserialize",
                                 "aggregator.decode_s",
                                 [&] { return PartialGraph::deserialize(bytes); });
      }
    }
    {
      // FID interning alone, in aggregation order, then the CSR build
      // over the resulting dense edges.
      VertexTable table;
      std::vector<GidEdge> edges;
      trace.span("graph", "intern", "graph.intern_s", [&] {
        std::size_t vertex_total = 0;
        std::size_t edge_total = 0;
        for (const PartialGraph& p : partials) {
          vertex_total += p.vertices.size();
          edge_total += p.edges.size();
        }
        table.reserve(vertex_total);
        for (const PartialGraph& p : partials) {
          for (const VertexRecord& v : p.vertices) {
            table.intern_scanned(v.fid, v.kind);
          }
        }
        edges.reserve(edge_total);
        for (const PartialGraph& p : partials) {
          for (const FidEdge& e : p.edges) {
            const Gid src = table.intern_referenced(e.src);
            const Gid dst = table.intern_referenced(e.dst);
            edges.push_back({src, dst, e.kind});
          }
        }
      });
      const UnifiedGraph csr = trace.span(
          "graph", "from_edges", "graph.csr_s",
          [&] { return UnifiedGraph::from_edges(table.size(), edges, &pool); });
      (void)csr;
    }
    const UnifiedGraph graph =
        trace.span("graph", "aggregate", "graph.aggregate_s",
                   [&] { return UnifiedGraph::aggregate(partials, &pool); });
    partials.clear();
    partials.shrink_to_fit();
    const FaultyRankConfig config;
    const PropagationPlan plan = trace.span(
        "core", "plan_build", "core.plan_build_s", [&] {
          return PropagationPlan::build(graph, config.unpaired_weight, &pool);
        });
    const FaultyRankResult ranks =
        trace.span("core", "run_faultyrank", "core.rank_s",
                   [&] { return run_faultyrank(graph, plan, config, &pool); });
    counts.graph_bytes = graph.bytes();
    counts.plan_bytes = plan.bytes();
    counts.edges = graph.edge_count();
    counts.iterations = ranks.iterations;
  });
  return counts;
}

void put_counts(const Outcome& o, RunResult& result) {
  result.values["check_io_sim_s"] = o.io_sim;
  result.values["graph.vertices"] = static_cast<double>(o.vertices);
  result.values["graph.edges"] = static_cast<double>(o.edges);
  result.values["core.rank_iterations"] = static_cast<double>(o.iterations);
  result.values["core.findings"] = static_cast<double>(o.findings);
  result.values["checker.repairs_applied"] =
      static_cast<double>(o.repairs_applied);
  result.values["checker.repair_applied_frac"] =
      o.repairs_attempted == 0 ? 0.0
                               : static_cast<double>(o.repairs_applied) /
                                     static_cast<double>(o.repairs_attempted);
  result.values["pfs.undo_bytes"] = static_cast<double>(o.undo_bytes);
}

}  // namespace

RunResult run_offline_lanl(const Options& options, ThreadPool& pool,
                           Trace& trace) {
  const Size size = options.smoke ? Size{4, 2000} : Size{8, 200000};
  const std::string stem = options.work_dir + "/offline_lanl-seed" +
                           std::to_string(options.seed);
  const std::string pristine = stem + ".pristine.img";
  const std::string output = stem + ".repaired.img";

  RunResult result;
  Setup setup;
  std::vector<double> setup_times;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    const auto start = std::chrono::steady_clock::now();
    setup = build_image(options, size, pristine);
    setup_times.push_back(seconds_since(start));
  }
  release_free_memory();

  RssSampler rss;
  rss.start();
  std::vector<Outcome> plain;
  std::vector<Outcome> traced;
  ProbeCounts probe_counts;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t k = 0; k == 0 || seconds_since(start) < options.seconds;
       ++k) {
    // With tracing on, untraced and traced operations alternate so the
    // run also measures what tracing costs; which goes first alternates
    // too (by seed and pair), so neither side always follows the probe.
    const bool traced_first = (options.seed + k) % 2 == 1;
    for (int turn = 0; turn < 2; ++turn) {
      // Every check starts from a trimmed heap, as a fresh
      // faultyrank_fsck process would, whatever ran before it.
      release_free_memory();
      if ((turn == 0) != traced_first) {
        ++result.attempted;
        plain.push_back(
            check_untraced(pristine, output, pool, setup.truths, result));
      } else if (trace.enabled()) {
        trace.set_op(++result.attempted);
        traced.push_back(
            check_traced(pristine, output, pool, trace, setup.truths, result));
        probe_counts = probe(pristine, pool, trace);
      }
    }
  }
  rss.stop();
  std::filesystem::remove(pristine);
  std::filesystem::remove(output);

  std::vector<double> walls, graph_walls, fr_walls;
  for (const Outcome& o : plain) {
    walls.push_back(o.wall);
    graph_walls.push_back(o.graph_wall);
    fr_walls.push_back(o.fr_wall);
  }
  const Outcome& first = plain.front();
  // Every operation checks the same pristine image: its counts repeat.
  for (const Outcome& o : plain) {
    if (o.findings != first.findings || o.repairs_applied != first.repairs_applied ||
        o.io_sim != first.io_sim || o.edges != first.edges) {
      result.correct = false;
      result.problems.push_back("counts differ between identical operations");
    }
  }
  for (const Outcome& o : traced) {
    // The re-composed check must agree with run_checker.
    if (o.findings != first.findings || o.repairs_applied != first.repairs_applied ||
        o.iterations != first.iterations || o.edges != first.edges ||
        o.undo_bytes != first.undo_bytes || o.io_sim != first.io_sim) {
      result.correct = false;
      result.problems.push_back("traced re-composition differs from run_checker");
    }
  }

  auto& v = result.values;
  v["setup_s"] = median(setup_times);
  v["check_s"] = median(walls);
  v["graph_build_s"] = median(graph_walls);
  v["rank_solve_s"] = median(fr_walls);
  v["peak_rss_mb"] = static_cast<double>(rss.max_bytes()) / (1 << 20);
  put_counts(first, result);

  if (trace.enabled()) {
    for (const auto& [metric, value] : trace.metric_medians()) v[metric] = value;
    v["aggregator.wire_bytes"] = static_cast<double>(traced.front().wire_bytes);
    v["scanner.sim_s"] = probe_counts.scan_sim;
    v["scanner.inodes"] = static_cast<double>(probe_counts.inodes);
    v["graph.bytes_per_edge"] = static_cast<double>(probe_counts.graph_bytes) /
                                static_cast<double>(probe_counts.edges);
    v["core.plan_bytes_per_edge"] = static_cast<double>(probe_counts.plan_bytes) /
                                    static_cast<double>(probe_counts.edges);
    v["core.rank_iter_s"] =
        v["core.rank_s"] / static_cast<double>(std::max<std::uint64_t>(
                               1, probe_counts.iterations));
    const double traced_wall = median(trace.root_durations("op"));
    v["trace.overhead_s"] = traced_wall - v["check_s"];
    v["trace.overhead_frac"] = v["trace.overhead_s"] / v["check_s"];
    v["op.other_s"] = median(trace.root_uncovered("op"));
    v["op.other_frac"] = v["op.other_s"] / traced_wall;
  }

  const HostInfo host = host_info();
  const double graph_mb = static_cast<double>(first.graph_bytes) / (1 << 20);
  result.report.str("workload", "offline_lanl")
      .count("seed", options.seed)
      .str("size", options.smoke ? "smoke" : "full")
      .count("osts", size.osts)
      .count("files", setup.stats.files)
      .count("directories", setup.stats.directories)
      .count("vertices", first.vertices)
      .count("edges", first.edges)
      .num("graph_mb", graph_mb)
      .boolean("exceeds_llc", first.graph_bytes > host.llc_bytes)
      .count("operations", plain.size())
      .count("traced_operations", traced.size())
      .raw("check_s_samples", json_array(walls))
      .raw("graph_build_s_samples", json_array(graph_walls))
      .raw("rank_solve_s_samples", json_array(fr_walls))
      .raw("exact", JsonObject()
                        .count("graph.vertices", first.vertices)
                        .count("graph.edges", first.edges)
                        .count("aggregator.wire_bytes",
                               traced.empty() ? 0 : traced.front().wire_bytes)
                        .count("core.rank_iterations", first.iterations)
                        .count("core.findings", first.findings)
                        .count("checker.repairs_applied", first.repairs_applied)
                        .num("check_io_sim_s", first.io_sim)
                        .render())
      .num("setup_s_min", *std::min_element(setup_times.begin(), setup_times.end()))
      .num("setup_s_max", *std::max_element(setup_times.begin(), setup_times.end()));
  return result;
}

}  // namespace perfbench
