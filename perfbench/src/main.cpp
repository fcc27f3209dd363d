// perfbench_driver — one benchmark run of one workload.
//
//   perfbench_driver --workload offline_lanl|rmat_solve|online_churn
//                    --seed N --seconds S --trace 0|1
//                    [--size full|smoke] [--work-dir DIR]
//
// Prints a "# stamp" line (host and build), a "# report" line (input
// sizes, exact counts, tails), with --trace 1 a per-layer self-time
// table and the path of the Chrome trace file, and last one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.h"
#include "common/thread_pool.h"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "offline_lanl|rmat_solve|online_churn --seed N --seconds S "
               "--trace 0|1 [--size full|smoke] [--work-dir DIR]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
      if (!(options.seconds > 0.0)) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "smoke") usage("--size: full|smoke");
      options.smoke = value == "smoke";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (options.work_dir.empty()) options.work_dir = ".bench_build/perfbench-work";
  return options;
}

void print_self_times(const Trace& trace, std::uint64_t ops,
                      const RunResult& result) {
  std::printf("# per-layer self time (traced run, per traced operation; "
              "probe spans are extra work beside the operation)\n");
  for (const auto& [layer, seconds] : trace.layer_self_seconds()) {
    std::printf("#   %-12s %10.4f s\n", layer.c_str(),
                ops > 0 ? seconds / static_cast<double>(ops) : 0.0);
  }
  std::printf("# end-to-end medians of the untraced operations in this run:\n");
  for (const MetricSpec& spec : metric_specs()) {
    if (spec.kind != MetricKind::kEndToEnd) continue;
    const auto it = result.values.find(spec.name);
    if (it == result.values.end()) continue;
    std::printf("#   %-14s %12.6g %s\n", spec.name, it->second, spec.unit);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  std::filesystem::create_directories(options.work_dir);

  // One pool per process, at most one worker per hardware thread.
  faultyrank::ThreadPool pool;
  Trace trace(options.trace);

  RunResult result;
  try {
    if (options.workload == "offline_lanl") {
      result = run_offline_lanl(options, pool, trace);
    } else if (options.workload == "rmat_solve") {
      result = run_rmat_solve(options, pool, trace);
    } else if (options.workload == "online_churn") {
      result = run_online_churn(options, pool, trace);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_driver: %s failed: %s\n",
                 options.workload.c_str(), error.what());
    return 1;
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "perfbench_driver: no operation ran\n");
    return 1;
  }
  result.values["failed_frac"] = static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted);
  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "perfbench_driver: failed operation: %s\n",
                 problem.c_str());
  }

  std::printf("# stamp %s\n", host_stamp_json(pool.size()).c_str());
  std::printf("# report %s\n", result.report.render().c_str());
  if (options.trace) {
    const std::string path = options.work_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             ".trace.json";
    trace.write_chrome_json(path);
    const auto roots = trace.root_durations("op");
    print_self_times(trace, roots.size(), result);
    std::printf("# chrome trace: %s\n", path.c_str());
  }

  const MetricKind wanted =
      options.trace ? MetricKind::kLayer : MetricKind::kEndToEnd;
  JsonObject metrics;
  for (const MetricSpec& spec : metric_specs()) {
    if (spec.kind != wanted) continue;
    const auto it = result.values.find(spec.name);
    JsonObject metric;
    metric.num("value", it == result.values.end() ? 0.0 : it->second)
        .str("unit", spec.unit);
    metrics.raw(spec.name, metric.render());
  }
  JsonObject line;
  line.boolean("correct", result.correct && result.failed == 0)
      .count("attempted", result.attempted)
      .count("failed", result.failed)
      .raw("metrics", metrics.render());
  std::printf("%s\n", line.render().c_str());
  return 0;
}
