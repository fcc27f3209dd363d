// Shared pieces of the whole-check benchmark driver: run options, the
// metric registry, per-run results, the span recorder, small statistics
// helpers and the RSS high-water sampler.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

namespace faultyrank {
class ThreadPool;
}

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;          ///< tiny inputs for the benchmark's own tests
  std::string work_dir;        ///< images and trace files go here
};

/// Set-up runs this many times per run; setup_s is the median.
inline constexpr std::size_t kSetupRepeats = 3;

enum class MetricKind { kEndToEnd, kLayer };

struct MetricSpec {
  const char* name;
  const char* unit;
  MetricKind kind;
};

/// Every metric the driver can emit, in output order. A workload that
/// does not exercise a layer reports that layer's metrics as 0.
[[nodiscard]] std::span<const MetricSpec> metric_specs();

/// Minimal ordered JSON object writer (values are pre-rendered).
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value);
  JsonObject& count(const std::string& key, std::uint64_t value);
  JsonObject& str(const std::string& key, const std::string& value);
  JsonObject& boolean(const std::string& key, bool value);
  JsonObject& raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

[[nodiscard]] std::string json_string(const std::string& s);
[[nodiscard]] std::string json_number(double value);
[[nodiscard]] std::string json_array(const std::vector<double>& xs);

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Metric values by name; names absent here are reported as 0.
  std::map<std::string, double> values;
  /// Everything else worth keeping with the run: input sizes, exact
  /// counts, tail percentiles with their sample counts.
  JsonObject report;
  std::vector<std::string> problems;  ///< why an operation failed

  void fail(const std::string& why) {
    ++failed;
    if (problems.size() < 20) problems.push_back(why);
  }
};

// ---------------------------------------------------------------- stats

[[nodiscard]] double median(std::vector<double> xs);

/// The highest percentile with at least ten samples beyond it.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< 0 when fewer than 11 samples exist
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail_of(std::vector<double> xs);

[[nodiscard]] double seconds_since(std::chrono::steady_clock::time_point t);

/// Stable per-purpose sub-seed of the workload seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

// ---------------------------------------------------------------- trace

/// In-memory span recorder. Spans are opened and closed on the driver
/// thread only, around calls into the library's public functions; the
/// library may use its pool inside a call. Disabled, span() is a plain
/// call with no clock reads.
class Trace {
 public:
  explicit Trace(bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Operation id stamped on every span opened from now on.
  void set_op(std::uint64_t op) noexcept { op_ = op; }

  /// Times `fn` as one span. `metric`, if non-null, names the per-layer
  /// metric this span's duration adds to (summed per operation).
  template <class F>
  decltype(auto) span(const char* layer, const char* name, const char* metric,
                      F&& fn) {
    if (!enabled_) return fn();
    struct Closer {
      Trace* trace;
      std::size_t id;
      ~Closer() { trace->close(id); }
    } closer{this, open(layer, name, metric)};
    return fn();
  }

  /// Median over operations of the per-operation sum of each metric's
  /// spans (operations without such a span are skipped).
  [[nodiscard]] std::map<std::string, double> metric_medians() const;

  /// Durations of the root spans of `layer`, one per operation.
  [[nodiscard]] std::vector<double> root_durations(const char* layer) const;

  /// Per root span of `layer`: its duration minus what its direct
  /// children cover.
  [[nodiscard]] std::vector<double> root_uncovered(const char* layer) const;

  /// Total self time (duration minus direct children) per layer.
  [[nodiscard]] std::map<std::string, double> layer_self_seconds() const;

  /// Chrome trace-event JSON ("X" events, microseconds), viewable in
  /// chrome://tracing or Perfetto.
  void write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    std::string layer;
    std::string name;
    const char* metric = nullptr;
    double start_us = 0.0;
    double end_us = 0.0;
    std::size_t parent = kNoParent;
    std::uint64_t op = 0;
  };
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  std::size_t open(const char* layer, const char* name, const char* metric);
  void close(std::size_t id);
  [[nodiscard]] double now_us() const;
  [[nodiscard]] std::vector<double> children_cover() const;

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

// ------------------------------------------------------------ memory

/// Samples the resident-set size every 2 ms on a helper thread;
/// max() is the high-water mark since start(). Used instead of VmHWM so
/// that the set-up peak does not mask the timed operations' peak.
class RssSampler {
 public:
  RssSampler() = default;
  ~RssSampler() { stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  void start();
  void stop();
  [[nodiscard]] std::uint64_t max_bytes() const noexcept {
    return max_.load();
  }

 private:
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> max_{0};
  std::thread thread_;
};

/// Returns freed heap to the OS so the timed phase starts from the
/// state it needs, not from set-up's leftovers.
void release_free_memory();

// -------------------------------------------------------------- host

struct HostInfo {
  unsigned nproc = 0;
  std::string cpu_model;
  std::uint64_t llc_bytes = 0;
};
[[nodiscard]] HostInfo host_info();

/// The stamp every result carries: host, compiler and build, pool size.
[[nodiscard]] std::string host_stamp_json(std::size_t pool_size);

// --------------------------------------------------------- workloads

RunResult run_offline_lanl(const Options& options, faultyrank::ThreadPool& pool,
                           Trace& trace);
RunResult run_rmat_solve(const Options& options, faultyrank::ThreadPool& pool,
                         Trace& trace);
RunResult run_online_churn(const Options& options, faultyrank::ThreadPool& pool,
                           Trace& trace);

}  // namespace perfbench
