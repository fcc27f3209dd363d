// Crash-state + corruption-fuzz convergence matrix (DESIGN.md §15).
//
// Enumerates every crash prefix of the instrumented namespace ops
// (B3-style: one state per crash-point firing), layers on the eight
// curated scenarios, structured EA/DIRENT mutations from MetaFuzzer,
// and raw snapshot bit-flips/truncations — then runs BOTH checkers on
// every state:
//
//   FaultyRank oracle: bootstrap + first check (scored for false
//     positives against the state's touched-FID set) + repair_until_clean.
//   LFSCK baseline: repair rounds until a fresh graph check judges the
//     namespace consistent, or the round budget runs out.
//
// Each state lands in one divergence class:
//   agree_clean      both judged the state consistent untouched
//   agree_repair     both converged after repairs (equivalent outcome)
//   lfsck_ignores    LFSCK's rules produce no action, state stays broken
//   lfsck_fails      LFSCK acts but never reaches a consistent state
//   lfsck_misrepairs LFSCK "converges" but destroys what FaultyRank
//                    preserves (the entry's name / the victim's data)
//   fr_failed        FaultyRank did not converge (campaign gate: zero)
//
// Invariant gates (exit 1): every ground-truthed state converges under
// FaultyRank with zero false positives; raw-bytes fuzzing only ever
// escapes as PersistenceError and no parsed state makes the checker
// throw; the full campaign covers >= 1000 crash states and >= 500
// fuzzed images and finds at least one LFSCK divergence.
//
// `--smoke` shrinks every axis; `--out FILE` writes BENCH_crash.json.
// All state generation is deterministic in --seed.
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "checker/checker.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "faults/crash_states.h"
#include "faults/injector.h"
#include "faults/meta_fuzzer.h"
#include "lfsck/lfsck.h"
#include "online/online_checker.h"
#include "pfs/persistence.h"
#include "workload/namespace_gen.h"

using namespace faultyrank;

namespace {

constexpr std::size_t kOstCount = 4;
constexpr std::size_t kMaxRounds = 6;

// ---------------------------------------------------------------- bases

struct Base {
  std::string label;
  std::size_t mdt_count = 1;
  std::vector<std::uint8_t> bytes;
};

Base make_base(std::size_t mdts, std::uint64_t files, std::uint64_t seed) {
  LustreCluster cluster(kOstCount, StripePolicy{64 * 1024, -1}, mdts);
  NamespaceConfig config;
  config.file_count = files;
  config.dir_ratio = 0.25;
  config.max_depth = 5;
  config.hardlink_ratio = 0.06;
  config.seed = seed;
  populate_namespace(cluster, config);
  return {"mdt" + std::to_string(mdts), mdts, serialize_cluster(cluster)};
}

// ------------------------------------------------------ namespace walk

struct PathInfo {
  std::string path;
  Fid fid;
  bool is_dir = false;
  bool empty_dir = false;
};

void walk(const LustreCluster& cluster, const Fid& dir,
          const std::string& prefix, std::vector<PathInfo>& out) {
  const Inode* inode = cluster.stat(dir);
  if (inode == nullptr) return;
  for (const DirentEntry& entry : inode->dirents) {
    if (entry.name == ".lustre") continue;
    const std::string path = prefix + "/" + entry.name;
    const Inode* child = cluster.stat(entry.fid);
    if (child == nullptr) continue;
    const bool is_dir = child->type == InodeType::kDirectory;
    out.push_back({path, entry.fid, is_dir, is_dir && child->dirents.empty()});
    if (is_dir) walk(cluster, entry.fid, path, out);
  }
}

std::string parent_of(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  return slash == 0 ? std::string("/") : path.substr(0, slash);
}

std::string name_of(const std::string& path) {
  return path.substr(path.rfind('/') + 1);
}

std::string join(const std::string& dir, const std::string& name) {
  return dir == "/" ? "/" + name : dir + "/" + name;
}

// ----------------------------------------------------- spec generation

std::vector<CrashOpSpec> make_specs(const LustreCluster& base,
                                    std::size_t per_op, Rng& rng) {
  std::vector<PathInfo> all;
  walk(base, base.root(), "", all);
  std::vector<PathInfo> dirs{{"/", base.root(), true, false}};
  std::vector<PathInfo> files;
  std::vector<PathInfo> empty_dirs;
  for (const PathInfo& info : all) {
    if (info.is_dir) {
      dirs.push_back(info);
      if (info.empty_dir) empty_dirs.push_back(info);
    } else {
      files.push_back(info);
    }
  }

  std::vector<CrashOpSpec> specs;
  std::uint32_t uniq = 0;
  const auto dir_at = [&]() -> const std::string& {
    return dirs[rng.below(dirs.size())].path;
  };
  // Sizes chosen to exercise 1..4 stripe objects under the 64 KB policy.
  constexpr std::uint64_t kSizes[] = {4096, 40 * 1024, 130 * 1024, 200 * 1024};

  for (std::size_t i = 0; i < per_op; ++i) {
    specs.push_back({CrashOpKind::kMkdir, dir_at(),
                     "cm_mk" + std::to_string(uniq++), "", 0});
  }
  for (std::size_t i = 0; i < per_op; ++i) {
    specs.push_back({CrashOpKind::kCreate, dir_at(),
                     "cm_cr" + std::to_string(uniq++), "",
                     kSizes[i % std::size(kSizes)]});
  }
  for (std::size_t i = 0; i < per_op && !files.empty(); ++i) {
    const PathInfo& src = files[rng.below(files.size())];
    specs.push_back({CrashOpKind::kHardLink, dir_at(),
                     "cm_ln" + std::to_string(uniq++), src.path, 0});
  }
  for (std::size_t i = 0; i < per_op && !files.empty(); ++i) {
    // Mostly files (including multi-stripe ones); every fourth pick an
    // empty directory when one exists, so rmdir-style unlinks show up.
    const bool pick_dir = (i % 4 == 3) && !empty_dirs.empty();
    const PathInfo& victim =
        pick_dir ? empty_dirs[rng.below(empty_dirs.size())]
                 : files[rng.below(files.size())];
    specs.push_back({CrashOpKind::kUnlink, parent_of(victim.path),
                     name_of(victim.path), "", 0});
  }
  for (std::size_t i = 0; i < per_op && !all.empty(); ++i) {
    // Retry a few times to avoid moving a directory under itself.
    for (int attempt = 0; attempt < 8; ++attempt) {
      const PathInfo& src = all[rng.below(all.size())];
      const std::string& dest = dir_at();
      if (src.is_dir &&
          (dest == src.path || dest.rfind(src.path + "/", 0) == 0)) {
        continue;
      }
      specs.push_back({CrashOpKind::kRename, dest,
                       "cm_rn" + std::to_string(uniq++), src.path, 0});
      break;
    }
  }
  return specs;
}

// ------------------------------------------------------------ planning

enum class Source : std::uint8_t { kCrash, kCurated, kFuzz };

struct StatePlan {
  Source source = Source::kCrash;
  std::size_t base_index = 0;
  std::string label;
  std::string group;  // op kind / scenario / fuzz
  // crash:
  CrashOpSpec spec;
  std::size_t crash_index = 0;
  // curated:
  Scenario scenario = Scenario::kDanglingSourceProperty;
  // curated + fuzz:
  std::uint64_t seed = 0;
  std::size_t mutations = 1;
};

enum Class : int {
  kAgreeClean = 0,
  kAgreeRepair = 1,
  kLfsckIgnores = 2,
  kLfsckFails = 3,
  kLfsckMisrepairs = 4,
  kFrFailed = 5,
  kClassCount = 6,
};

constexpr const char* kClassNames[kClassCount] = {
    "agree_clean",   "agree_repair", "lfsck_ignores",
    "lfsck_fails",   "lfsck_misrepairs", "fr_failed",
};

struct StateResult {
  bool evaluated = false;  ///< false: no eligible victim, spec skipped
  std::string error;       ///< worker threw (campaign gate: none)
  bool fr_clean = false;
  std::size_t fr_rounds = 0;
  std::size_t fr_repairs = 0;
  std::size_t findings = 0;
  std::size_t false_positives = 0;
  bool lfsck_clean = false;
  std::size_t lfsck_actions = 0;
  bool fr_lossy = false;  ///< LFSCK preserved something FaultyRank lost
  int cls = kAgreeClean;
  std::string label;
};

// ---------------------------------------------------------- evaluation

bool judge_consistent(LustreCluster& cluster) {
  OnlineChecker judge(cluster, {});
  judge.bootstrap();
  return judge.check().report.consistent();
}

bool involves(const Finding& finding, const std::vector<Fid>& touched) {
  for (const Fid& fid : touched) {
    if (finding.convicted_object == fid || finding.source == fid ||
        finding.target == fid || finding.repair.target == fid ||
        finding.repair.value == fid || finding.repair.stale == fid) {
      return true;
    }
  }
  return false;
}

bool fid_exists_raw(const LustreCluster& cluster, const Fid& fid) {
  for (std::size_t m = 0; m < cluster.mdt_count(); ++m) {
    if (cluster.mdt_server(m).image.find_by_fid_raw(fid) != nullptr) {
      return true;
    }
  }
  return false;
}

/// Where did the op's entry land after repairs? kForward: the new name
/// resolves to the child. kBack: the pre-op name does (rename/hardlink)
/// or the child is gone entirely (mkdir/create). kLost: the child
/// survives somewhere (lost+found) but neither name reaches it — the
/// namespace forgot what the op was doing.
enum class PathOutcome : std::uint8_t { kForward, kBack, kLost, kNA };

PathOutcome path_outcome(const LustreCluster& cluster, const CrashOpSpec& spec,
                         const Fid& child) {
  if (spec.kind == CrashOpKind::kUnlink || child.is_null()) {
    return PathOutcome::kNA;
  }
  try {
    if (cluster.resolve(join(spec.parent_path, spec.name)) == child) {
      return PathOutcome::kForward;
    }
  } catch (const ClusterError&) {
  }
  if (spec.kind == CrashOpKind::kRename ||
      spec.kind == CrashOpKind::kHardLink) {
    try {
      if (cluster.resolve(spec.src_path) == child) return PathOutcome::kBack;
    } catch (const ClusterError&) {
    }
  } else if (!fid_exists_raw(cluster, child)) {
    return PathOutcome::kBack;  // rolled back: the half-made child is gone
  }
  return PathOutcome::kLost;
}

struct Materialized {
  LustreCluster state;
  std::vector<Fid> touched;
  Fid child;  ///< crash ops: the entry's FID in a completed run
  std::optional<GroundTruth> truth;
};

std::optional<Materialized> materialize(const std::vector<Base>& bases,
                                        const StatePlan& plan) {
  switch (plan.source) {
    case Source::kCrash: {
      const CrashStateEnumerator enumerator(bases[plan.base_index].bytes);
      const CrashStateEnumerator::Trace trace = enumerator.trace(plan.spec);
      CrashReplica replica =
          enumerator.run_with_crash(plan.spec, plan.crash_index);
      replica.cluster.attach_changelog(nullptr);
      Fid child;
      if (!trace.touched.empty()) child = trace.touched.back();
      return Materialized{std::move(replica.cluster), trace.touched, child,
                          std::nullopt};
    }
    case Source::kCurated: {
      LustreCluster state = deserialize_cluster(bases[plan.base_index].bytes);
      FaultInjector injector(state, plan.seed);
      GroundTruth truth;
      try {
        truth = injector.inject(plan.scenario);
      } catch (const InjectionError&) {
        return std::nullopt;  // no eligible victim on this base
      }
      std::vector<Fid> touched{truth.victim, truth.current,
                               truth.original_value};
      return Materialized{std::move(state), std::move(touched), Fid{}, truth};
    }
    case Source::kFuzz: {
      LustreCluster state = deserialize_cluster(bases[plan.base_index].bytes);
      MetaFuzzer fuzzer(state, plan.seed);
      const std::vector<FuzzRecord> records = fuzzer.campaign(plan.mutations);
      if (records.empty()) return std::nullopt;
      std::vector<Fid> touched;
      for (const FuzzRecord& record : records) {
        touched.insert(touched.end(), record.touched.begin(),
                       record.touched.end());
      }
      return Materialized{std::move(state), std::move(touched), Fid{},
                          std::nullopt};
    }
  }
  return std::nullopt;
}

StateResult evaluate(const std::vector<Base>& bases, const StatePlan& plan) {
  StateResult result;
  result.label = plan.label;

  std::optional<Materialized> made = materialize(bases, plan);
  if (!made) return result;  // evaluated stays false
  result.evaluated = true;

  const std::vector<std::uint8_t> bytes = serialize_cluster(made->state);

  // ---- FaultyRank oracle ----
  LustreCluster fr = deserialize_cluster(bytes);
  OnlineChecker checker(fr, {});
  checker.bootstrap();
  const OnlineCheckResult first = checker.check();
  result.findings = first.report.findings.size();
  for (const Finding& finding : first.report.findings) {
    if (finding.unverifiable) continue;
    if (!involves(finding, made->touched)) ++result.false_positives;
  }
  const OnlineCheckResult conv = repair_until_clean(fr, checker, kMaxRounds);
  result.fr_clean = conv.verified_consistent;
  result.fr_rounds = conv.repair_rounds;
  result.fr_repairs = conv.repairs_applied;

  // ---- LFSCK baseline ----
  LustreCluster lf = deserialize_cluster(bytes);
  for (std::size_t round = 0;; ++round) {
    if (judge_consistent(lf)) {
      result.lfsck_clean = true;
      break;
    }
    if (round >= kMaxRounds) break;
    const LfsckResult res = run_lfsck(lf, {});
    std::size_t acted = 0;
    for (const LfsckEvent& event : res.events) {
      if (event.kind != LfsckActionKind::kSkipped) ++acted;
    }
    result.lfsck_actions += acted;
    if (acted == 0) break;  // fixpoint: further rounds cannot help
  }

  // ---- classification ----
  if (!result.fr_clean) {
    result.cls = kFrFailed;
    return result;
  }
  if (!result.lfsck_clean) {
    result.cls =
        result.lfsck_actions == 0 ? kLfsckIgnores : kLfsckFails;
    return result;
  }
  bool misrepair = false;
  if (plan.source == Source::kCrash) {
    const PathOutcome fr_path = path_outcome(fr, plan.spec, made->child);
    const PathOutcome lf_path = path_outcome(lf, plan.spec, made->child);
    misrepair = fr_path != PathOutcome::kNA &&
                fr_path != PathOutcome::kLost &&
                lf_path == PathOutcome::kLost;
    result.fr_lossy =
        fr_path == PathOutcome::kLost && lf_path != PathOutcome::kLost &&
        lf_path != PathOutcome::kNA;
  } else if (made->truth.has_value()) {
    const bool fr_restored = verify_restored(fr, *made->truth);
    const bool lf_restored = verify_restored(lf, *made->truth);
    misrepair = fr_restored && !lf_restored;
    result.fr_lossy = !fr_restored && lf_restored;
  }
  if (misrepair) {
    result.cls = kLfsckMisrepairs;
  } else if (result.fr_repairs == 0 && result.lfsck_actions == 0) {
    result.cls = kAgreeClean;
  } else {
    result.cls = kAgreeRepair;
  }
  return result;
}

// ------------------------------------------------- raw-bytes fuzz slice

struct SerdesTally {
  std::size_t images = 0;
  std::size_t rejected = 0;        ///< clean PersistenceError
  std::size_t parsed = 0;
  std::size_t fr_converged = 0;    ///< parsed states repair_until_clean'd
  std::size_t repair_threw = 0;    ///< repair on garbage threw (tolerated)
  std::size_t checker_threw = 0;   ///< bootstrap/check threw (gate: zero)
  std::size_t wrong_error = 0;     ///< non-PersistenceError escape (gate)
};

void serdes_case(const std::vector<std::uint8_t>& base, bool truncate,
                 std::uint64_t seed, SerdesTally& tally) {
  std::vector<std::uint8_t> bytes = base;
  Rng rng(seed);
  if (truncate) {
    bytes.resize(rng.below(bytes.size()));
  } else {
    const std::size_t flips = 1 + rng.below(8);
    for (std::size_t f = 0; f < flips; ++f) {
      bytes[rng.below(bytes.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    }
  }
  try {
    LustreCluster cluster = deserialize_cluster(bytes);
    try {
      OnlineChecker checker(cluster, {});
      checker.bootstrap();
      (void)checker.check();
      ++tally.parsed;
      try {
        if (repair_until_clean(cluster, checker, 4).verified_consistent) {
          ++tally.fr_converged;
        }
      } catch (const std::exception&) {
        ++tally.repair_threw;
      }
    } catch (const std::exception&) {
      ++tally.checker_threw;
    }
  } catch (const PersistenceError&) {
    ++tally.rejected;
  } catch (const std::exception&) {
    ++tally.wrong_error;
  }
}

// ------------------------------------------------------------ reporting

struct OpTally {
  std::string op;
  std::size_t states = 0;
};

void add_example(std::vector<std::string>& examples, const std::string& label) {
  if (examples.size() < 3) examples.push_back(label);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::uint64_t seed = 20260808;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
      seed = std::strtoull(argv[++i], nullptr, 10);
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
  }

  const WallTimer timer;

  // ---- bases: the op mix needs a 1-MDT and DNE (multi-MDT) namespaces ----
  std::vector<Base> bases;
  if (smoke) {
    bases.push_back(make_base(2, 30, seed + 1));
  } else {
    bases.push_back(make_base(1, 80, seed + 1));
    bases.push_back(make_base(2, 80, seed + 2));
    bases.push_back(make_base(4, 80, seed + 3));
  }
  for (const Base& base : bases) {
    LustreCluster check = deserialize_cluster(base.bytes);
    if (!judge_consistent(check)) {
      std::fprintf(stderr, "base %s is not consistent before any fault\n",
                   base.label.c_str());
      return 1;
    }
  }

  // ---- plan every state deterministically from the seed ----
  std::vector<StatePlan> plans;
  const std::size_t per_op = smoke ? 2 : 16;
  std::size_t crash_planned = 0;
  for (std::size_t b = 0; b < bases.size(); ++b) {
    Rng rng(seed * 257 + b);
    const LustreCluster base = deserialize_cluster(bases[b].bytes);
    const CrashStateEnumerator enumerator(bases[b].bytes);
    for (const CrashOpSpec& spec : make_specs(base, per_op, rng)) {
      const CrashStateEnumerator::Trace trace = enumerator.trace(spec);
      for (std::size_t k = 0; k < trace.points.size(); ++k) {
        StatePlan plan;
        plan.source = Source::kCrash;
        plan.base_index = b;
        plan.spec = spec;
        plan.crash_index = k;
        plan.group = to_string(spec.kind);
        plan.label = bases[b].label + " " + spec.describe() + " @" +
                     std::to_string(k) + ":" + trace.points[k];
        plans.push_back(std::move(plan));
        ++crash_planned;
      }
    }
  }
  const std::size_t curated_per_scenario = smoke ? 1 : 2;
  std::size_t curated_planned = 0;
  for (std::size_t b = 0; b < bases.size(); ++b) {
    for (const Scenario scenario : FaultInjector::scenario_list()) {
      for (std::size_t r = 0; r < curated_per_scenario; ++r) {
        StatePlan plan;
        plan.source = Source::kCurated;
        plan.base_index = b;
        plan.scenario = scenario;
        plan.seed = seed * 31 + b * 997 + static_cast<std::size_t>(scenario) * 13 + r;
        plan.group = to_string(scenario);
        plan.label = bases[b].label + " " + to_string(scenario) + " r" +
                     std::to_string(r);
        plans.push_back(std::move(plan));
        ++curated_planned;
      }
    }
  }
  const std::size_t fuzz_per_base = smoke ? 24 : 170;
  std::size_t fuzz_planned = 0;
  for (std::size_t b = 0; b < bases.size(); ++b) {
    for (std::size_t i = 0; i < fuzz_per_base; ++i) {
      StatePlan plan;
      plan.source = Source::kFuzz;
      plan.base_index = b;
      plan.seed = seed * 77 + b * 100003 + i;
      plan.mutations = 1 + i % 3;
      plan.group = "fuzz";
      plan.label = bases[b].label + " fuzz #" + std::to_string(i) + " x" +
                   std::to_string(plan.mutations);
      plans.push_back(std::move(plan));
      ++fuzz_planned;
    }
  }

  // ---- evaluate in parallel; every slot is index-addressed ----
  ThreadPool pool;
  std::vector<StateResult> results(plans.size());
  {
    TaskGroup group(pool);
    for (std::size_t i = 0; i < plans.size(); ++i) {
      group.submit([&, i] {
        try {
          results[i] = evaluate(bases, plans[i]);
        } catch (const std::exception& error) {
          results[i].label = plans[i].label;
          results[i].error = error.what();
        }
      });
    }
    group.wait();
  }

  // ---- raw-bytes (serdes) fuzz slice, round-robin over the bases ----
  const std::size_t serdes_flip = smoke ? 20 : 120;
  const std::size_t serdes_trunc = smoke ? 10 : 80;
  SerdesTally serdes;
  serdes.images = serdes_flip + serdes_trunc;
  for (std::size_t i = 0; i < serdes_flip; ++i) {
    serdes_case(bases[i % bases.size()].bytes, false, seed * 131 + i, serdes);
  }
  for (std::size_t i = 0; i < serdes_trunc; ++i) {
    serdes_case(bases[i % bases.size()].bytes, true, seed * 151 + i, serdes);
  }

  // ---- reduce ----
  std::size_t class_counts[kClassCount] = {};
  std::vector<std::string> class_examples[kClassCount];
  std::size_t evaluated_by_source[3] = {};
  std::size_t skipped = 0;
  std::size_t errors = 0;
  std::size_t false_positives = 0;
  std::size_t scored_findings = 0;
  std::size_t fr_repairs_total = 0;
  std::size_t fr_rounds_max = 0;
  std::size_t fr_lossy = 0;
  std::vector<OpTally> by_op;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const StateResult& r = results[i];
    if (!r.error.empty()) {
      ++errors;
      std::fprintf(stderr, "error: %s: %s\n", r.label.c_str(),
                   r.error.c_str());
      continue;
    }
    if (!r.evaluated) {
      ++skipped;
      continue;
    }
    ++evaluated_by_source[static_cast<int>(plans[i].source)];
    ++class_counts[r.cls];
    add_example(class_examples[r.cls], r.label);
    false_positives += r.false_positives;
    scored_findings += r.findings;
    fr_repairs_total += r.fr_repairs;
    if (r.fr_rounds > fr_rounds_max) fr_rounds_max = r.fr_rounds;
    if (r.fr_lossy) ++fr_lossy;
    if (plans[i].source == Source::kCrash) {
      const std::string op = plans[i].group;
      bool found = false;
      for (OpTally& tally : by_op) {
        if (tally.op == op) {
          ++tally.states;
          found = true;
        }
      }
      if (!found) by_op.push_back({op, 1});
    }
  }
  const std::size_t verifiable = evaluated_by_source[0] +
                                 evaluated_by_source[1] +
                                 evaluated_by_source[2];
  const std::size_t converged = verifiable - class_counts[kFrFailed];
  const std::size_t divergent = class_counts[kLfsckIgnores] +
                                class_counts[kLfsckFails] +
                                class_counts[kLfsckMisrepairs];
  const double wall = timer.seconds();

  std::printf(
      "crash matrix (%s, seed %llu): %zu crash states, %zu curated, "
      "%zu fuzzed (+%zu skipped), %zu serdes images in %.1fs\n",
      smoke ? "smoke" : "full", static_cast<unsigned long long>(seed),
      evaluated_by_source[0], evaluated_by_source[1], evaluated_by_source[2],
      skipped, serdes.images, wall);
  std::printf("  faultyrank: %zu/%zu converged, %zu false positive(s), "
              "%zu repairs, max %zu round(s)\n",
              converged, verifiable, false_positives, fr_repairs_total,
              fr_rounds_max);
  for (int c = 0; c < kClassCount; ++c) {
    std::printf("  %-17s %zu\n", kClassNames[c], class_counts[c]);
    for (const std::string& example : class_examples[c]) {
      if (c >= kLfsckIgnores) std::printf("      e.g. %s\n", example.c_str());
    }
  }
  std::printf("  serdes: %zu rejected, %zu parsed (%zu converged, "
              "%zu repair-throws), %zu checker-throws, %zu wrong errors\n",
              serdes.rejected, serdes.parsed, serdes.fr_converged,
              serdes.repair_threw, serdes.checker_threw, serdes.wrong_error);

  // ---- invariant gates ----
  bool ok = true;
  const auto gate = [&](bool condition, const char* message) {
    if (!condition) {
      std::fprintf(stderr, "GATE FAILED: %s\n", message);
      ok = false;
    }
  };
  gate(errors == 0, "worker errors");
  gate(class_counts[kFrFailed] == 0,
       "faultyrank must converge on every ground-truthed state");
  gate(false_positives == 0,
       "no finding may implicate an untouched object");
  gate(serdes.wrong_error == 0,
       "raw-bytes fuzzing must only escape as PersistenceError");
  gate(serdes.checker_threw == 0,
       "the checker must not throw on any parseable state");
  if (!smoke) {
    gate(evaluated_by_source[0] >= 1000, ">= 1000 enumerated crash states");
    gate(evaluated_by_source[2] >= 500, ">= 500 structured fuzz images");
    gate(divergent >= 1, "at least one LFSCK divergence class populated");
  }

  if (out_path != nullptr) {
    std::FILE* out = std::fopen(out_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out_path);
      return 1;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"bench\": \"crash_matrix\",\n");
    std::fprintf(out, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
    std::fprintf(out, "  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(seed));
    std::fprintf(out, "  \"bases\": [");
    for (std::size_t b = 0; b < bases.size(); ++b) {
      std::fprintf(out, "%s{\"label\": \"%s\", \"mdts\": %zu, \"bytes\": %zu}",
                   b == 0 ? "" : ", ", bases[b].label.c_str(),
                   bases[b].mdt_count, bases[b].bytes.size());
    }
    std::fprintf(out, "],\n");
    std::fprintf(out, "  \"states\": {\n");
    std::fprintf(out,
                 "    \"crash\": {\"planned\": %zu, \"evaluated\": %zu, "
                 "\"by_op\": {",
                 crash_planned, evaluated_by_source[0]);
    for (std::size_t i = 0; i < by_op.size(); ++i) {
      std::fprintf(out, "%s\"%s\": %zu", i == 0 ? "" : ", ",
                   by_op[i].op.c_str(), by_op[i].states);
    }
    std::fprintf(out, "}},\n");
    std::fprintf(out,
                 "    \"curated\": {\"planned\": %zu, \"evaluated\": %zu},\n",
                 curated_planned, evaluated_by_source[1]);
    std::fprintf(out,
                 "    \"fuzz\": {\"planned\": %zu, \"evaluated\": %zu},\n",
                 fuzz_planned, evaluated_by_source[2]);
    std::fprintf(out,
                 "    \"serdes\": {\"images\": %zu, \"rejected\": %zu, "
                 "\"parsed\": %zu, \"fr_converged\": %zu, "
                 "\"repair_threw\": %zu, \"checker_threw\": %zu, "
                 "\"wrong_error\": %zu}\n",
                 serdes.images, serdes.rejected, serdes.parsed,
                 serdes.fr_converged, serdes.repair_threw,
                 serdes.checker_threw, serdes.wrong_error);
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"oracle\": {\n");
    std::fprintf(out, "    \"verifiable_states\": %zu,\n", verifiable);
    std::fprintf(out, "    \"fr_converged\": %zu,\n", converged);
    std::fprintf(out, "    \"convergence_rate\": %.6f,\n",
                 verifiable == 0
                     ? 1.0
                     : static_cast<double>(converged) /
                           static_cast<double>(verifiable));
    std::fprintf(out, "    \"scored_findings\": %zu,\n", scored_findings);
    std::fprintf(out, "    \"false_positives\": %zu,\n", false_positives);
    std::fprintf(out, "    \"fr_repairs_total\": %zu,\n", fr_repairs_total);
    std::fprintf(out, "    \"fr_rounds_max\": %zu\n", fr_rounds_max);
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"divergence\": {");
    for (int c = 0; c < kClassCount; ++c) {
      std::fprintf(out, "%s\"%s\": %zu", c == 0 ? "" : ", ", kClassNames[c],
                   class_counts[c]);
    }
    std::fprintf(out, ", \"fr_lossy\": %zu},\n", fr_lossy);
    std::fprintf(out, "  \"examples\": {\n");
    for (int c = kLfsckIgnores; c <= kLfsckMisrepairs; ++c) {
      std::fprintf(out, "    \"%s\": [", kClassNames[c]);
      for (std::size_t i = 0; i < class_examples[c].size(); ++i) {
        std::fprintf(out, "%s\"%s\"", i == 0 ? "" : ", ",
                     json_escape(class_examples[c][i]).c_str());
      }
      std::fprintf(out, "]%s\n", c == kLfsckMisrepairs ? "" : ",");
    }
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"skipped\": %zu,\n", skipped);
    std::fprintf(out, "  \"wall_seconds\": %.2f,\n", wall);
    std::fprintf(out, "  \"gates_passed\": %s\n", ok ? "true" : "false");
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote %s\n", out_path);
  }
  return ok ? 0 : 1;
}
