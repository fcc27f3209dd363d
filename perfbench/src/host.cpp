// Host/build stamp and the metric registry.
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {

namespace {

constexpr MetricKind E = MetricKind::kEndToEnd;
constexpr MetricKind L = MetricKind::kLayer;

constexpr MetricSpec kSpecs[] = {
    // End to end, measured with tracing off. Each workload's "check" is
    // the job its user waits for (README.md, "Metrics").
    {"setup_s", "s", E},
    {"check_s", "s", E},
    {"graph_build_s", "s", E},
    {"peak_rss_mb", "MB", E},
    // End-to-end figures too noisy to bound, or specific to one workload
    // (0 elsewhere), from the untraced operations of the traced run.
    {"rank_solve_s", "s", L},
    {"failed_frac", "frac", L},
    {"check_io_sim_s", "s", L},
    {"online_tick_s", "s", L},
    {"online_check_tail_s", "s", L},
    {"detect_ticks", "ticks", L},
    // Tracing itself.
    {"trace.overhead_s", "s", L},
    {"trace.overhead_frac", "frac", L},
    {"op.other_s", "s", L},
    {"op.other_frac", "frac", L},
    // pfs
    {"pfs.load_s", "s", L},
    {"pfs.save_s", "s", L},
    {"pfs.undo_snapshot_s", "s", L},
    {"pfs.undo_bytes", "B", L},
    {"pfs.op_s", "s", L},
    {"pfs.ops_failed", "count", L},
    // scanner
    {"scanner.scan_s", "s", L},
    {"scanner.sim_s", "s", L},
    {"scanner.inodes", "count", L},
    // aggregator
    {"aggregator.pipeline_s", "s", L},
    {"aggregator.wire_bytes", "B", L},
    {"aggregator.encode_s", "s", L},
    {"aggregator.decode_s", "s", L},
    // graph
    {"graph.aggregate_s", "s", L},
    {"graph.intern_s", "s", L},
    {"graph.csr_s", "s", L},
    {"graph.vertices", "count", L},
    {"graph.edges", "count", L},
    {"graph.bytes_per_edge", "B/edge", L},
    // core
    {"core.plan_build_s", "s", L},
    {"core.rank_s", "s", L},
    {"core.rank_iterations", "count", L},
    {"core.rank_iter_s", "s", L},
    {"core.plan_bytes_per_edge", "B/edge", L},
    {"core.detect_s", "s", L},
    {"core.findings", "count", L},
    // checker
    {"checker.repair_s", "s", L},
    {"checker.repairs_applied", "count", L},
    {"checker.repair_applied_frac", "frac", L},
    {"checker.verify_pass_s", "s", L},
    // online
    {"online.catch_up_s", "s", L},
    {"online.records", "count", L},
    {"online.scrub_s", "s", L},
    {"online.scrub_inodes", "count", L},
    {"online.freeze_s", "s", L},
    {"online.plan_reuse_frac", "frac", L},
    {"online.reuse_check_s", "s", L},
    {"online.warm_start_s", "s", L},
    {"online.rank_s", "s", L},
    {"online.detect_s", "s", L},
};

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (in) std::getline(in, line);
  return line;
}

/// "105M", "8192K" → bytes.
std::uint64_t parse_cache_size(const std::string& text) {
  if (text.empty()) return 0;
  char* end = nullptr;
  const std::uint64_t value = std::strtoull(text.c_str(), &end, 10);
  const char unit = end != nullptr ? *end : '\0';
  if (unit == 'K') return value << 10;
  if (unit == 'M') return value << 20;
  if (unit == 'G') return value << 30;
  return value;
}

}  // namespace

std::span<const MetricSpec> metric_specs() { return kSpecs; }

HostInfo host_info() {
  HostInfo info;
  info.nproc = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        info.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  // The last-level cache is the highest-level cache index of cpu0.
  int best_level = 0;
  for (int index = 0; index < 8; ++index) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    const std::string level = read_first_line(base + "/level");
    if (level.empty()) continue;
    const int l = std::atoi(level.c_str());
    if (l >= best_level) {
      best_level = l;
      info.llc_bytes = parse_cache_size(read_first_line(base + "/size"));
    }
  }
  return info;
}

std::string host_stamp_json(std::size_t pool_size) {
  const HostInfo host = host_info();
#ifdef FAULTYRANK_SIMD
  const bool simd = true;
#else
  const bool simd = false;
#endif
  JsonObject stamp;
  stamp.count("nproc", host.nproc)
      .str("cpu_model", host.cpu_model)
      .count("llc_bytes", host.llc_bytes)
      .str("compiler", PERFBENCH_COMPILER)
      .str("cxx_flags", PERFBENCH_CXX_FLAGS)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .boolean("faultyrank_simd", simd)
      .count("pool_threads", pool_size);
  return stamp.render();
}

}  // namespace perfbench
