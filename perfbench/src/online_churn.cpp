// online_churn — small, repeated online checks beside namespace writes,
// on a graph that fits in the cache (README.md, "Workloads").
//
// Set-up: a 50 000-file cluster with a ChangeLog attached, a traffic
// driver (8 users, default mix) and an OnlineChecker that has run
// bootstrap() and one warm-up check(). The scrub batch is sized so two
// scrub steps per tick sweep every inode slot in kSweepTicks ticks.
//
// Load: a closed loop with one client, made of ticks. A busy tick runs
// TrafficDriver::step, catch_up, two scrub_steps and check(); every
// kQuietEvery-th tick skips the traffic, which exercises the cached
// snapshot and plan. Every kInjectEvery ticks one scenario is planted,
// round-robin, and never repaired; a fault still undetected after
// kInjectEvery ticks fails that tick.
//
// Traced run: blocks of kQuietEvery ticks alternate untraced and traced.
// A traced tick is one root span over its calls; when its check()
// rebuilt the snapshot, a probe root span re-runs what check() did —
// freeze, PropagationPlan::build, the warm-started run_faultyrank and
// detect — on the same graph state, and must reproduce its ranks bit
// for bit.
#include <bit>
#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "common/thread_pool.h"
#include "core/propagation_plan.h"
#include "faults/injector.h"
#include "online/online_checker.h"
#include "pfs/changelog.h"
#include "workload/namespace_gen.h"
#include "workload/traffic.h"

namespace perfbench {

using namespace faultyrank;

namespace {

constexpr std::size_t kQuietEvery = 4;
constexpr std::size_t kInjectEvery = 8;
constexpr std::size_t kSweepTicks = 4;
constexpr std::size_t kScrubStepsPerTick = 2;
/// Exact-repeat counts are taken over this fixed prefix of ticks, which
/// every run executes whatever its length.
constexpr std::size_t kPrefixTicks = 2 * kInjectEvery;

struct Size {
  std::size_t osts;
  std::uint64_t files;
  std::size_t ops_per_tick;
};

/// Members are declared in dependency order: the cluster refers to the
/// log, and the drivers refer to the cluster.
struct State {
  ChangeLog log;
  std::unique_ptr<LustreCluster> cluster;
  std::unique_ptr<TrafficDriver> traffic;
  std::unique_ptr<OnlineChecker> checker;
  std::unique_ptr<FaultInjector> injector;
  std::size_t scrub_batch = 0;
  NamespaceStats stats;
};

std::unique_ptr<State> build_state(const Options& options, const Size& size,
                                   ThreadPool& pool) {
  auto state = std::make_unique<State>();
  state->cluster =
      std::make_unique<LustreCluster>(size.osts, StripePolicy{64 * 1024, -1});
  state->cluster->attach_changelog(&state->log);
  NamespaceConfig ns;
  ns.file_count = size.files;
  ns.seed = derive_seed(options.seed, 4);
  state->stats = populate_namespace(*state->cluster, ns);

  TrafficConfig traffic;
  traffic.seed = derive_seed(options.seed, 5);
  traffic.users = 8;
  state->traffic = std::make_unique<TrafficDriver>(*state->cluster, traffic);

  const LustreCluster& cluster = *state->cluster;
  std::uint64_t slots = 0;
  for (std::size_t m = 0; m < cluster.mdt_count(); ++m) {
    slots += cluster.mdt_server(m).image.inode_slots();
  }
  for (const OstServer& ost : cluster.osts()) slots += ost.image.inode_slots();
  const std::size_t steps = kSweepTicks * kScrubStepsPerTick;
  state->scrub_batch = static_cast<std::size_t>((slots + steps - 1) / steps);

  OnlineCheckerConfig checker;
  checker.pool = &pool;
  checker.scrub_batch = state->scrub_batch;
  state->checker = std::make_unique<OnlineChecker>(*state->cluster, checker);
  state->checker->bootstrap();
  (void)state->checker->check();  // cold start, paid once
  state->injector = std::make_unique<FaultInjector>(*state->cluster,
                                                    derive_seed(options.seed, 6));
  return state;
}

struct Tick {
  bool traced = false;
  bool quiet = false;
  bool reused = false;
  double traffic_s = 0.0;
  std::size_t ops = 0;
  double catch_up_s = 0.0;
  std::size_t records = 0;
  double scrub_s = 0.0;
  std::size_t scrubbed = 0;
  double check_s = 0.0;
  double freeze_wall = 0.0;  ///< as check() reports it
  double rank_wall = 0.0;    ///< as check() reports it
  std::uint64_t iterations = 0;
  std::uint64_t findings = 0;
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;

  [[nodiscard]] double wall() const {
    return traffic_s + catch_up_s + scrub_s + check_s;
  }
};

struct Planted {
  GroundTruth truth;
  std::size_t tick = 0;
  std::size_t latency = 0;  ///< checks until detected; 0 while pending
  bool expired = false;
};

bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

/// What the previous check() converged to, keyed the way the checker
/// keys its warm start. Valid only while the benchmark knows the FIDs of
/// the snapshot those ranks belong to.
struct WarmState {
  bool valid = false;
  std::vector<Fid> fids;
  std::vector<double> id_rank;
  std::vector<double> prop_rank;
};

struct ProbeStats {
  std::uint64_t graph_bytes = 0;
  std::uint64_t plan_bytes = 0;
  std::uint64_t edges = 0;
};

}  // namespace

RunResult run_online_churn(const Options& options, ThreadPool& pool,
                           Trace& trace) {
  const Size size = options.smoke ? Size{4, 1500, 24} : Size{8, 50000, 64};
  RunResult result;

  std::unique_ptr<State> state;
  std::vector<double> setup_times;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    state.reset();
    const auto start = std::chrono::steady_clock::now();
    state = build_state(options, size, pool);
    setup_times.push_back(seconds_since(start));
  }
  release_free_memory();
  OnlineChecker& checker = *state->checker;
  const OnlineCheckerConfig checker_defaults;

  RssSampler rss;
  rss.start();
  std::vector<Tick> ticks;
  std::vector<Planted> planted;
  std::size_t next_scenario = 0;
  std::uint64_t ops_failed_prefix = 0;
  WarmState warm;
  ProbeStats probe_stats;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0;
       i < kPrefixTicks || seconds_since(start) < options.seconds; ++i) {
    Tick tick;
    tick.traced = trace.enabled() && (i / kQuietEvery) % 2 == 1;
    tick.quiet = i % kQuietEvery == kQuietEvery - 1;
    ++result.attempted;
    trace.set_op(i);

    if (i % kInjectEvery == 0) {
      const auto scenarios = FaultInjector::scenario_list();
      const Scenario scenario = scenarios[next_scenario++ % scenarios.size()];
      try {
        planted.push_back({state->injector->inject(scenario), i, 0, false});
      } catch (const InjectionError& error) {
        result.fail(std::string("injection failed: ") + error.what());
      }
    }

    // One segment of the tick: timed always, traced in traced ticks.
    const auto segment = [&](const char* layer, const char* name,
                             const char* metric, double& seconds, auto&& fn) {
      const auto t0 = std::chrono::steady_clock::now();
      if (tick.traced) {
        trace.span(layer, name, metric, fn);
      } else {
        fn();
      }
      seconds += seconds_since(t0);
    };
    OnlineCheckResult check;
    const auto body = [&] {
      if (!tick.quiet) {
        segment("pfs", "traffic_step", nullptr, tick.traffic_s,
                [&] { tick.ops = state->traffic->step(size.ops_per_tick); });
      }
      segment("online", "catch_up", "online.catch_up_s", tick.catch_up_s,
              [&] { tick.records = checker.catch_up(); });
      for (std::size_t s = 0; s < kScrubStepsPerTick; ++s) {
        segment("online", "scrub_step", "online.scrub_s", tick.scrub_s,
                [&] { tick.scrubbed += checker.scrub_step(); });
      }
      segment("online", "check", nullptr, tick.check_s,
              [&] { check = checker.check(); });
    };
    if (tick.traced) {
      trace.span("op", "online_churn.tick", nullptr, body);
    } else {
      body();
    }
    tick.reused = check.plan_reused;
    tick.freeze_wall = check.freeze_wall_seconds;
    tick.rank_wall = check.rank_wall_seconds;
    tick.iterations = check.ranks.iterations;
    tick.findings = check.report.findings.size();
    tick.vertices = check.vertices;
    tick.edges = check.edges;

    // Detection oracle.
    for (Planted& p : planted) {
      if (p.latency != 0 || p.expired || p.tick > i) continue;
      const std::size_t checks = i - p.tick + 1;
      if (evaluate_report(check.report, p.truth).detected) {
        p.latency = checks;
      } else if (checks >= kInjectEvery) {
        p.expired = true;
        result.fail(std::string("fault undetected after ") +
                    std::to_string(checks) + " ticks: " +
                    to_string(p.truth.scenario));
      }
    }

    // Probe: re-run what this check() did, on the same graph state.
    if (tick.traced && !tick.reused) {
      trace.span("probe", "online_churn.probe", nullptr, [&] {
        const UnifiedGraph snapshot =
            trace.span("online", "freeze", "online.freeze_s",
                       [&] { return checker.graph().freeze(&pool); });
        const PropagationPlan plan =
            trace.span("core", "plan_build", "core.plan_build_s", [&] {
              return PropagationPlan::build(
                  snapshot, checker_defaults.rank.unpaired_weight, &pool);
            });
        if (warm.valid) {
          FaultyRankResult ranks;
          trace.span("online", "warm_rank", "online.rank_s", [&] {
            FaultyRankConfig config = checker_defaults.rank;
            std::vector<double> warm_id;
            std::vector<double> warm_prop;
            trace.span("online", "warm_start", "online.warm_start_s", [&] {
              std::unordered_map<Fid, std::pair<double, double>, FidHash> last;
              last.reserve(warm.fids.size());
              for (std::size_t v = 0; v < warm.fids.size(); ++v) {
                last.emplace(warm.fids[v],
                             std::pair(warm.id_rank[v], warm.prop_rank[v]));
              }
              const std::size_t n = snapshot.vertex_count();
              warm_id.assign(n, config.initial_rank);
              warm_prop.assign(n, config.initial_rank);
              for (Gid v = 0; v < n; ++v) {
                const auto it = last.find(snapshot.vertices().fid_of(v));
                if (it != last.end()) {
                  warm_id[v] = it->second.first;
                  warm_prop[v] = it->second.second;
                }
              }
            });
            config.initial_id_ranks = &warm_id;
            config.initial_prop_ranks = &warm_prop;
            ranks = trace.span("core", "run_faultyrank", "core.rank_s", [&] {
              return run_faultyrank(snapshot, plan, config, &pool);
            });
          });
          DetectorConfig detector;
          detector.threshold = checker_defaults.detection_threshold;
          detector.root = state->cluster->root();
          const DetectionReport report =
              trace.span("core", "detect_inconsistencies", "core.detect_s", [&] {
                return detect_inconsistencies(snapshot, ranks, detector);
              });
          if (!bit_equal(ranks.id_rank, check.ranks.id_rank) ||
              !bit_equal(ranks.prop_rank, check.ranks.prop_rank) ||
              report.findings.size() != check.report.findings.size()) {
            result.correct = false;
            result.problems.push_back("probe did not reproduce check() at tick " +
                                      std::to_string(i));
          }
        }
        probe_stats.graph_bytes = snapshot.bytes();
        probe_stats.plan_bytes = plan.bytes();
        probe_stats.edges = snapshot.edge_count();
        warm.fids.resize(snapshot.vertex_count());
        for (Gid v = 0; v < snapshot.vertex_count(); ++v) {
          warm.fids[v] = snapshot.vertices().fid_of(v);
        }
      });
      warm.valid = true;
    } else if (!tick.reused) {
      warm.valid = false;  // a snapshot the benchmark did not see
    }
    if (warm.valid) {
      warm.id_rank = check.ranks.id_rank;
      warm.prop_rank = check.ranks.prop_rank;
    }
    if (i + 1 == kPrefixTicks) ops_failed_prefix = state->traffic->stats().failed;
    ticks.push_back(tick);
  }
  rss.stop();
  if (probe_stats.graph_bytes == 0) {
    // Untraced runs still report the snapshot size, measured after the
    // timed ticks.
    probe_stats.graph_bytes = checker.graph().freeze(&pool).bytes();
  }

  // --------------------------------------------------------- metrics
  std::vector<double> check_all, check_plain, freeze_plain, rank_plain,
      tick_plain, reuse_checks;
  for (const Tick& t : ticks) {
    // A traced tick times check() with the same clock reads: every tick
    // counts towards the tail.
    check_all.push_back(t.check_s);
    if (t.reused) reuse_checks.push_back(t.check_s);
    if (t.traced) continue;
    check_plain.push_back(t.check_s);
    rank_plain.push_back(t.rank_wall);
    tick_plain.push_back(t.wall());
    if (!t.reused) freeze_plain.push_back(t.freeze_wall);
  }
  std::vector<double> op_seconds;
  for (const Tick& t : ticks) {
    if (t.quiet || t.ops == 0) continue;
    if (t.traced == trace.enabled()) {
      op_seconds.push_back(t.traffic_s / static_cast<double>(t.ops));
    }
  }

  // Exact counts over the fixed prefix.
  std::uint64_t records = 0, scrubbed = 0, iterations = 0, reused = 0;
  for (std::size_t i = 0; i < kPrefixTicks; ++i) {
    records += ticks[i].records;
    scrubbed += ticks[i].scrubbed;
    iterations += ticks[i].iterations;
    reused += ticks[i].reused ? 1 : 0;
  }
  const Tick& last = ticks[kPrefixTicks - 1];
  std::uint64_t latency_sum = 0, detected = 0;
  for (const Planted& p : planted) {
    if (p.tick >= kPrefixTicks || p.latency == 0) continue;
    latency_sum += p.latency;
    ++detected;
  }
  const double detect_ticks =
      detected == 0 ? 0.0
                    : static_cast<double>(latency_sum) / static_cast<double>(detected);
  const Tail tail = tail_of(check_all);

  auto& v = result.values;
  v["setup_s"] = median(setup_times);
  v["check_s"] = median(check_plain);
  v["graph_build_s"] = median(freeze_plain);
  v["rank_solve_s"] = median(rank_plain);
  v["peak_rss_mb"] = static_cast<double>(rss.max_bytes()) / (1 << 20);
  v["online_tick_s"] = median(tick_plain);
  v["online_check_tail_s"] = tail.value;
  v["detect_ticks"] = detect_ticks;
  v["pfs.op_s"] = median(op_seconds);
  v["pfs.ops_failed"] = static_cast<double>(ops_failed_prefix);
  v["online.records"] = static_cast<double>(records);
  v["online.scrub_inodes"] = static_cast<double>(scrubbed);
  v["online.plan_reuse_frac"] =
      static_cast<double>(reused) / static_cast<double>(kPrefixTicks);
  v["online.reuse_check_s"] = median(reuse_checks);
  v["core.rank_iterations"] = static_cast<double>(iterations);
  v["core.findings"] = static_cast<double>(last.findings);
  v["graph.vertices"] = static_cast<double>(last.vertices);
  v["graph.edges"] = static_cast<double>(last.edges);

  if (trace.enabled()) {
    for (const auto& [metric, value] : trace.metric_medians()) v[metric] = value;
    v["online.detect_s"] = v["core.detect_s"];
    std::vector<double> probe_iters;
    for (const Tick& t : ticks) {
      if (t.traced && !t.reused) probe_iters.push_back(static_cast<double>(t.iterations));
    }
    v["core.rank_iter_s"] = v["core.rank_s"] / std::max(1.0, median(probe_iters));
    if (probe_stats.edges > 0) {
      v["graph.bytes_per_edge"] = static_cast<double>(probe_stats.graph_bytes) /
                                  static_cast<double>(probe_stats.edges);
      v["core.plan_bytes_per_edge"] = static_cast<double>(probe_stats.plan_bytes) /
                                      static_cast<double>(probe_stats.edges);
    }
    const double traced_wall = median(trace.root_durations("op"));
    v["trace.overhead_s"] = traced_wall - v["online_tick_s"];
    v["trace.overhead_frac"] = v["trace.overhead_s"] / v["online_tick_s"];
    v["op.other_s"] = median(trace.root_uncovered("op"));
    v["op.other_frac"] = v["op.other_s"] / traced_wall;
  }

  const HostInfo host = host_info();
  const double graph_mb =
      static_cast<double>(probe_stats.graph_bytes) / (1 << 20);
  std::string latencies = "[";
  for (const Planted& p : planted) {
    if (latencies.size() > 1) latencies += ", ";
    latencies += std::to_string(p.latency);
  }
  latencies += "]";
  result.report.str("workload", "online_churn")
      .count("seed", options.seed)
      .str("size", options.smoke ? "smoke" : "full")
      .count("osts", size.osts)
      .count("files", state->stats.files)
      .count("vertices", last.vertices)
      .count("edges", last.edges)
      .num("graph_mb", graph_mb)
      .boolean("exceeds_llc",
               probe_stats.graph_bytes > host.llc_bytes)
      .count("scrub_batch", state->scrub_batch)
      .count("ops_per_tick", size.ops_per_tick)
      .count("ticks", ticks.size())
      .count("injections", planted.size())
      .raw("detect_latencies", latencies)
      .raw("online_check_tail",
           JsonObject()
               .num("value_s", tail.value)
               .num("percentile", tail.percentile)
               .count("samples", tail.samples)
               .render())
      .raw("exact", JsonObject()
                        .count("graph.vertices", last.vertices)
                        .count("graph.edges", last.edges)
                        .count("core.rank_iterations", iterations)
                        .count("core.findings", last.findings)
                        .count("online.records", records)
                        .count("online.scrub_inodes", scrubbed)
                        .count("online.plan_reuse", reused)
                        .count("pfs.ops_failed", ops_failed_prefix)
                        .num("detect_ticks", detect_ticks)
                        .render())
      .num("setup_s_min", *std::min_element(setup_times.begin(), setup_times.end()))
      .num("setup_s_max", *std::max_element(setup_times.begin(), setup_times.end()));
  return result;
}

}  // namespace perfbench
