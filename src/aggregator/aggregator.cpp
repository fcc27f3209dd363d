#include "aggregator/aggregator.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "aggregator/checkpoint.h"
#include "common/timer.h"
#include "pfs/persistence.h"

namespace faultyrank {

namespace {

/// Moves one scan result onto the MDS: local partials join directly,
/// remote ones cross the wire (encode, count the bytes, decode).
void decode_partial(const ScanResult& scan, PartialGraph& out,
                    std::uint64_t& wire_bytes) {
  if (scan.local_to_mds) {
    out = scan.graph;
    return;
  }
  const auto bytes = scan.graph.serialize();
  wire_bytes = bytes.size();
  out = PartialGraph::deserialize(bytes);
}

/// Fills the virtual-time transfer accounting. Pure arithmetic over the
/// per-scanner sim times and wire sizes, so every pool size reports
/// identical numbers. Failed scans keep
/// their partial sim time in the scan stage (the crash was detected at
/// that point) but transfer nothing.
void account_transfers(std::span<const ScanResult> scans,
                       std::span<const std::uint64_t> wire_bytes,
                       const NetModel& net, AggregationResult& result) {
  double slowest_scan = 0.0;
  std::vector<std::size_t> remote;
  for (std::size_t i = 0; i < scans.size(); ++i) {
    slowest_scan = std::max(slowest_scan, scans[i].sim_seconds);
    if (scans[i].status == ScanStatus::kFailed) continue;
    if (!scans[i].local_to_mds) {
      remote.push_back(i);
      result.transferred_bytes += wire_bytes[i];
      result.sim_transfer_seconds += net.transfer(wire_bytes[i]);
    }
  }
  // Pipelined model: each transfer becomes ready when its scanner
  // finishes; the single MDS ingress link serves them in readiness
  // order (ties broken by server index for determinism).
  std::sort(remote.begin(), remote.end(),
            [&](std::size_t a, std::size_t b) {
              return scans[a].sim_seconds != scans[b].sim_seconds
                         ? scans[a].sim_seconds < scans[b].sim_seconds
                         : a < b;
            });
  double link_free = 0.0;
  for (const std::size_t i : remote) {
    const double start = std::max(link_free, scans[i].sim_seconds);
    link_free = start + net.transfer(wire_bytes[i]);
  }
  result.sim_pipeline_seconds = std::max(slowest_scan, link_free);
}

/// Unified graph from the surviving partials only, in slot order —
/// deterministic for any pool size, and identical between a resumed
/// and an uninterrupted run (both see the same survivors).
UnifiedGraph merge_survivors(std::span<const ScanResult> scans,
                             std::vector<PartialGraph>& partials,
                             ThreadPool* pool) {
  std::vector<PartialGraph> survivors;
  survivors.reserve(partials.size());
  for (std::size_t i = 0; i < scans.size(); ++i) {
    if (scans[i].status != ScanStatus::kFailed) {
      survivors.push_back(std::move(partials[i]));
    }
  }
  return UnifiedGraph::aggregate(survivors, pool);
}

void fill_coverage_fraction(std::span<const ScanResult> scans,
                            CoverageInfo& coverage) {
  std::size_t ok = 0;
  for (const ScanResult& scan : scans) {
    if (scan.status == ScanStatus::kFailed) continue;
    ++ok;
    for (const Fid& fid : scan.quarantined) coverage.quarantined.insert(fid);
  }
  coverage.coverage =
      scans.empty() ? 1.0
                    : static_cast<double>(ok) / static_cast<double>(scans.size());
}

}  // namespace

PipelineResult scan_and_aggregate(const LustreCluster& cluster,
                                  const PipelineConfig& config) {
  WallTimer total_timer;
  PipelineResult out;
  ClusterScan& scan = out.scan;
  const ServerSlots slots(cluster, config.mdt_disk, config.ost_disk,
                          config.faults, config.retry);
  const std::size_t server_count = slots.size();
  scan.results.resize(server_count);

  // Checkpoint prefill: slots completed by a previous (interrupted) run
  // are restored instead of rescanned. A missing file means a fresh
  // run; a corrupt or mismatched file is a real error.
  const bool checkpointing = !config.checkpoint_path.empty();
  ScanCheckpoint ckpt;
  std::vector<char> prefilled(server_count, 0);
  if (checkpointing) {
    std::vector<std::uint8_t> bytes;
    bool have_checkpoint = true;
    try {
      bytes = read_file_bytes(config.checkpoint_path);
    } catch (const PersistenceError&) {
      have_checkpoint = false;
    }
    if (have_checkpoint) {
      ScanCheckpoint loaded = deserialize_checkpoint(bytes);
      if (loaded.labels != slots.labels()) {
        throw PersistenceError("checkpoint " + config.checkpoint_path +
                               " does not match this cluster's servers");
      }
      if (loaded.epoch != config.checkpoint_epoch) {
        // Same cluster, older content: the namespace mutated between
        // the interruption and this resume. Those scans describe a
        // state that no longer exists — resuming them would mix two
        // points in time into one graph. Discard and rescan everything.
        out.checkpoint_discarded = true;
      } else {
        for (std::size_t i = 0; i < server_count; ++i) {
          if (loaded.results[i].has_value()) {
            scan.results[i] = std::move(*loaded.results[i]);
            prefilled[i] = 1;
            ++out.servers_resumed;
          }
        }
      }
    }
    ckpt.epoch = config.checkpoint_epoch;
    ckpt.labels = slots.labels();
    ckpt.results.resize(server_count);
    for (std::size_t i = 0; i < server_count; ++i) {
      if (prefilled[i]) ckpt.results[i] = scan.results[i];
    }
  }

  // One stream over every slot: a pending slot is scanned, a prefilled
  // one is ready at once. The caller sees each slot as soon as it is
  // ready, saves it to the checkpoint and honors the interrupt hook;
  // the surviving partial is then decoded while later scans still run.
  std::vector<PartialGraph> partials(server_count);
  std::vector<std::uint64_t> wire_bytes(server_count, 0);
  std::size_t new_completions = 0;
  double scan_wall = 0.0;  // when the last scanner reported
  const bool completed = stream_each(
      config.pool, server_count,
      [&](std::size_t slot) {
        if (!prefilled[slot]) scan.results[slot] = slots.scan(slot);
      },
      [&](std::size_t slot) {
        scan_wall = total_timer.seconds();
        if (prefilled[slot]) return true;
        if (checkpointing &&
            scan.results[slot].status != ScanStatus::kFailed) {
          ckpt.results[slot] = scan.results[slot];
          save_checkpoint(ckpt, config.checkpoint_path);
        }
        return ++new_completions < config.interrupt_after_servers;
      },
      [&](std::size_t slot) {
        if (scan.results[slot].status != ScanStatus::kFailed) {
          decode_partial(scan.results[slot], partials[slot], wire_bytes[slot]);
        }
      });
  if (!completed) {
    throw PipelineInterrupted(
        "pipeline interrupted after " + std::to_string(new_completions) +
        " scans" +
        (checkpointing ? " (checkpoint: " + config.checkpoint_path + ")"
                       : ""));
  }
  scan.wall_seconds = scan_wall;
  scan.total();

  // Coverage roll-up: which servers (and so which FID sequences) were
  // lost, which inodes were quarantined on survivors.
  CoverageInfo& coverage = out.agg.coverage;
  for (std::size_t i = 0; i < server_count; ++i) {
    if (scan.results[i].status != ScanStatus::kFailed) continue;
    out.failed_servers.push_back(slots.labels()[i]);
    coverage.add_lost_sequence(slots.fid_seq(i));
  }
  fill_coverage_fraction(scan.results, coverage);

  if (!out.failed_servers.empty() && !config.allow_degraded) {
    std::string message = "scan failed on";
    for (std::size_t i = 0; i < server_count; ++i) {
      if (scan.results[i].status != ScanStatus::kFailed) continue;
      message += " " + slots.labels()[i] + " (" + scan.results[i].error + ")";
    }
    throw PipelineError(message, std::move(out.failed_servers));
  }

  account_transfers(scan.results, wire_bytes, config.net, out.agg);
  out.agg.graph = merge_survivors(scan.results, partials, config.pool);
  out.wall_seconds = total_timer.seconds();
  out.agg.wall_seconds = std::max(0.0, out.wall_seconds - scan_wall);
  return out;
}

}  // namespace faultyrank
