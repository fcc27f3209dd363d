// rmat_solve — FaultyRank on a standalone RMAT graph, the paper's
// Table IV/V job: no scan, little interning (README.md, "Workloads").
//
// Set-up: generate_rmat (scale 20, degree 8) and the reference kernel's
// ranks as the oracle. Operation: UnifiedGraph::from_edges followed by
// run_faultyrank at the default config. The detector is not run: on
// RMAT every edge is unpaired.
//
// The traced operation splits run_faultyrank into PropagationPlan::build
// and the iterations over that plan; a probe root span times the
// VertexTable interning that from_edges performs.
#include <bit>
#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "common/thread_pool.h"
#include "core/faultyrank.h"
#include "core/propagation_plan.h"
#include "graph/vertex_table.h"
#include "workload/rmat.h"

namespace perfbench {

using namespace faultyrank;

namespace {

bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}


void judge(const FaultyRankResult& ranks, const FaultyRankResult& oracle,
           RunResult& result) {
  if (!bit_equal(ranks.id_rank, oracle.id_rank) ||
      !bit_equal(ranks.prop_rank, oracle.prop_rank)) {
    result.fail("ranks differ from the reference kernel");
  }
}

}  // namespace

RunResult run_rmat_solve(const Options& options, ThreadPool& pool,
                         Trace& trace) {
  RmatConfig rmat;
  rmat.scale = options.smoke ? 12 : 20;
  rmat.avg_degree = 8;
  rmat.seed = derive_seed(options.seed, 3);
  const FaultyRankConfig config;

  RunResult result;
  GeneratedGraph generated;
  FaultyRankResult oracle;
  std::uint64_t graph_bytes = 0;
  std::vector<double> setup_times;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    const auto start = std::chrono::steady_clock::now();
    generated = generate_rmat(rmat);
    const UnifiedGraph graph =
        UnifiedGraph::from_edges(generated.vertex_count, generated.edges, &pool);
    oracle = run_faultyrank_reference(graph, config, &pool);
    graph_bytes = graph.bytes();
    setup_times.push_back(seconds_since(start));
  }
  release_free_memory();

  const std::size_t n = generated.vertex_count;
  const std::uint64_t iterations = oracle.iterations;
  RssSampler rss;
  rss.start();
  std::vector<double> builds, ranks_s, totals;
  std::size_t traced_ops = 0;
  std::uint64_t plan_bytes = 0;
  std::uint64_t traced_iterations = 0;
  const auto start = std::chrono::steady_clock::now();
  do {
    ++result.attempted;
    {
      const auto t0 = std::chrono::steady_clock::now();
      const UnifiedGraph graph =
          UnifiedGraph::from_edges(n, generated.edges, &pool);
      builds.push_back(seconds_since(t0));
      const auto t1 = std::chrono::steady_clock::now();
      const FaultyRankResult ranks = run_faultyrank(graph, config, &pool);
      ranks_s.push_back(seconds_since(t1));
      totals.push_back(builds.back() + ranks_s.back());
      if (ranks.iterations != iterations) {
        result.correct = false;
        result.problems.push_back("iteration count differs between solves");
      }
      judge(ranks, oracle, result);
    }
    if (trace.enabled()) {
      trace.set_op(++result.attempted);
      ++traced_ops;
      // Declared outside the root span so that, as in the untraced
      // operation, freeing them is not timed.
      std::optional<UnifiedGraph> graph;
      std::optional<PropagationPlan> plan;
      FaultyRankResult ranks;
      trace.span("op", "rmat_solve.solve", nullptr, [&] {
        graph.emplace(trace.span(
            "graph", "from_edges", "graph.csr_s",
            [&] { return UnifiedGraph::from_edges(n, generated.edges, &pool); }));
        plan.emplace(trace.span("core", "plan_build", "core.plan_build_s", [&] {
          return PropagationPlan::build(*graph, config.unpaired_weight, &pool);
        }));
        ranks = trace.span("core", "run_faultyrank", "core.rank_s", [&] {
          return run_faultyrank(*graph, *plan, config, &pool);
        });
      });
      plan_bytes = plan->bytes();
      traced_iterations = ranks.iterations;
      judge(ranks, oracle, result);
      plan.reset();  // borrows the graph
      // The synthetic-FID interning from_edges does, on its own.
      trace.span("probe", "rmat_solve.probe", nullptr, [&] {
        VertexTable table;
        trace.span("graph", "intern", "graph.intern_s", [&] {
          table.reserve(n);
          for (std::size_t v = 0; v < n; ++v) {
            table.intern_scanned(Fid{1, static_cast<std::uint32_t>(v), 0},
                                 ObjectKind::kOther);
          }
        });
      });
    }
  } while (seconds_since(start) < options.seconds);
  rss.stop();

  const std::uint64_t edges = generated.edges.size();

  auto& v = result.values;
  v["setup_s"] = median(setup_times);
  v["check_s"] = median(totals);
  v["graph_build_s"] = median(builds);
  v["rank_solve_s"] = median(ranks_s);
  v["peak_rss_mb"] = static_cast<double>(rss.max_bytes()) / (1 << 20);
  v["graph.vertices"] = static_cast<double>(n);
  v["graph.edges"] = static_cast<double>(edges);
  v["core.rank_iterations"] = static_cast<double>(iterations);
  v["graph.bytes_per_edge"] =
      static_cast<double>(graph_bytes) / static_cast<double>(edges);

  if (trace.enabled()) {
    for (const auto& [metric, value] : trace.metric_medians()) v[metric] = value;
    if (traced_iterations != iterations) {
      result.correct = false;
      result.problems.push_back("traced solve iterated differently");
    }
    v["core.plan_bytes_per_edge"] =
        static_cast<double>(plan_bytes) / static_cast<double>(edges);
    v["core.rank_iter_s"] =
        v["core.rank_s"] /
        static_cast<double>(std::max<std::uint64_t>(1, traced_iterations));
    const double traced_wall = median(trace.root_durations("op"));
    v["trace.overhead_s"] = traced_wall - v["check_s"];
    v["trace.overhead_frac"] = v["trace.overhead_s"] / v["check_s"];
    v["op.other_s"] = median(trace.root_uncovered("op"));
    v["op.other_frac"] = v["op.other_s"] / traced_wall;
  }

  const HostInfo host = host_info();
  result.report.str("workload", "rmat_solve")
      .count("seed", options.seed)
      .str("size", options.smoke ? "smoke" : "full")
      .count("scale", rmat.scale)
      .count("avg_degree", rmat.avg_degree)
      .count("vertices", n)
      .count("edges", edges)
      .num("graph_mb", static_cast<double>(graph_bytes) / (1 << 20))
      .boolean("exceeds_llc", graph_bytes > host.llc_bytes)
      .count("operations", builds.size())
      .count("traced_operations", traced_ops)
      .raw("build_s_samples", json_array(builds))
      .raw("rank_s_samples", json_array(ranks_s))
      .raw("exact", JsonObject()
                        .count("graph.vertices", n)
                        .count("graph.edges", edges)
                        .count("core.rank_iterations", iterations)
                        .render())
      .num("setup_s_min", *std::min_element(setup_times.begin(), setup_times.end()))
      .num("setup_s_max", *std::max_element(setup_times.begin(), setup_times.end()));
  return result;
}

}  // namespace perfbench
