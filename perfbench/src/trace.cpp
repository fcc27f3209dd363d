// Statistics, JSON, the span recorder and the RSS sampler.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <malloc.h>
#include <stdexcept>

#include "bench.h"
#include "common/memory_tracker.h"

namespace perfbench {

// ------------------------------------------------------------------ json

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_array(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_number(xs[i]);
  }
  return out + "]";
}

JsonObject& JsonObject::num(const std::string& key, double value) {
  return raw(key, json_number(value));
}
JsonObject& JsonObject::count(const std::string& key, std::uint64_t value) {
  return raw(key, std::to_string(value));
}
JsonObject& JsonObject::str(const std::string& key, const std::string& value) {
  return raw(key, json_string(value));
}
JsonObject& JsonObject::boolean(const std::string& key, bool value) {
  return raw(key, value ? "true" : "false");
}
JsonObject& JsonObject::raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string JsonObject::render() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

// ----------------------------------------------------------------- stats

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

Tail tail_of(std::vector<double> xs) {
  Tail tail;
  tail.samples = xs.size();
  if (xs.size() < 11) return tail;
  std::sort(xs.begin(), xs.end());
  // Ten samples lie strictly above index n - 11.
  const std::size_t n = xs.size();
  tail.value = xs[n - 11];
  tail.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return tail;
}

double seconds_since(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
      .count();
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + tag;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ----------------------------------------------------------------- trace

Trace::Trace(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

double Trace::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::size_t Trace::open(const char* layer, const char* name,
                        const char* metric) {
  Span span;
  span.layer = layer;
  span.name = name;
  span.metric = metric;
  span.parent = stack_.empty() ? kNoParent : stack_.back();
  span.op = op_;
  spans_.push_back(std::move(span));
  stack_.push_back(spans_.size() - 1);
  spans_.back().start_us = now_us();
  return spans_.size() - 1;
}

void Trace::close(std::size_t id) {
  spans_[id].end_us = now_us();
  if (stack_.empty() || stack_.back() != id) {
    throw std::logic_error("perfbench: spans closed out of order");
  }
  stack_.pop_back();
}

std::vector<double> Trace::children_cover() const {
  std::vector<double> cover(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) cover[s.parent] += s.end_us - s.start_us;
  }
  return cover;
}

std::map<std::string, double> Trace::metric_medians() const {
  // metric → op → summed seconds
  std::map<std::string, std::map<std::uint64_t, double>> per_op;
  for (const Span& s : spans_) {
    if (s.metric == nullptr) continue;
    per_op[s.metric][s.op] += (s.end_us - s.start_us) * 1e-6;
  }
  std::map<std::string, double> out;
  for (const auto& [metric, ops] : per_op) {
    std::vector<double> xs;
    for (const auto& entry : ops) xs.push_back(entry.second);
    out[metric] = median(std::move(xs));
  }
  return out;
}

std::vector<double> Trace::root_durations(const char* layer) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.parent == kNoParent && s.layer == layer) {
      out.push_back((s.end_us - s.start_us) * 1e-6);
    }
  }
  return out;
}

std::vector<double> Trace::root_uncovered(const char* layer) const {
  const std::vector<double> cover = children_cover();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent == kNoParent && s.layer == layer) {
      out.push_back((s.end_us - s.start_us - cover[i]) * 1e-6);
    }
  }
  return out;
}

std::map<std::string, double> Trace::layer_self_seconds() const {
  const std::vector<double> cover = children_cover();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.layer] += (s.end_us - s.start_us - cover[i]) * 1e-6;
  }
  return out;
}

void Trace::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("perfbench: cannot write " + path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": "
        << json_string(s.layer + "." + s.name) << ", \"cat\": "
        << json_string(s.layer) << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
        << ", \"ts\": " << json_number(s.start_us)
        << ", \"dur\": " << json_number(s.end_us - s.start_us)
        << ", \"args\": {\"id\": " << i << ", \"op\": " << s.op
        << ", \"parent\": "
        << (s.parent == kNoParent ? std::string("null")
                                  : std::to_string(s.parent))
        << "}}";
  }
  out << "\n]}\n";
}

// ---------------------------------------------------------------- memory

void RssSampler::start() {
  stop();
  max_.store(faultyrank::rss_bytes());
  running_.store(true);
  thread_ = std::thread([this] {
    while (running_.load()) {
      const std::uint64_t rss = faultyrank::rss_bytes();
      if (rss > max_.load()) max_.store(rss);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
}

void RssSampler::stop() {
  running_.store(false);
  if (thread_.joinable()) thread_.join();
}

void release_free_memory() { malloc_trim(0); }

}  // namespace perfbench
