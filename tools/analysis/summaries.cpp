#include "analysis/summaries.h"

#include <algorithm>
#include <set>

#include "analysis/scopes.h"

namespace fr_analysis {

namespace {

bool is_punct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

// The wait family: member calls that park the calling thread on a
// condition. Always treated by name — every wrapper (CondVar,
// ThreadPool::wait, TaskGroup::wait) bottoms out in one of these
// spellings, and their bodies bottom out in std:: calls the corpus
// does not define.
const std::set<std::string>& wait_family() {
  static const std::set<std::string> kNames = {"wait", "wait_for",
                                               "wait_until"};
  return kNames;
}

/// Primitives that may block the calling thread: condition waits,
/// thread joins, and file I/O (a write to a cold NFS page can stall
/// arbitrarily long — exactly what must not happen under a hot lock).
const std::set<std::string>& blocking_names() {
  static const std::set<std::string> kNames = {
      "wait",   "wait_for", "wait_until", "join",     "fopen",  "fclose",
      "fread",  "fwrite",   "fgets",      "fputs",    "fputc",  "fprintf",
      "vfprintf", "fflush", "fscanf",     "fgetc",    "getline", "fseek",
  };
  return kNames;
}

/// Output-producing primitives — where determinism taint becomes
/// externally visible bytes. Matched by name even when the callee
/// resolves (ByteWriter::put's body is a memcpy; the name carries the
/// meaning).
const std::set<std::string>& emit_names() {
  static const std::set<std::string> kNames = {
      "put",   "put_string", "put_bytes", "fwrite",
      "fputs", "fputc",      "fprintf",   "vfprintf", "printf",
  };
  return kNames;
}

/// Member calls that mutate a container/field in place.
const std::set<std::string>& mutator_names() {
  static const std::set<std::string> kNames = {
      "push_back", "pop_back",  "push_front", "pop_front", "push",
      "pop",       "emplace",   "emplace_back", "emplace_front",
      "insert",    "erase",     "clear",      "resize",    "reserve",
      "assign",    "swap",      "store",
  };
  return kNames;
}

const std::set<std::string>& unordered_types() {
  static const std::set<std::string> kNames = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return kNames;
}

bool is_write_op(const Token& t) {
  if (t.kind != TokKind::kPunct) return false;
  static const std::set<std::string> kOps = {"=",  "+=", "-=", "*=", "/=",
                                             "%=", "|=", "&=", "^=", "<<=",
                                             ">>=", "++", "--"};
  return kOps.count(t.text) > 0;
}

/// True when the declaration at this scope stack is a class member.
bool inside_class(const ScopeTracker& scopes) {
  for (const Scope& scope : scopes.stack()) {
    if (scope.kind == ScopeKind::kClass || !scope.class_context.empty()) {
      return true;
    }
  }
  return false;
}

std::string chain_step(const std::string& callee_id, const std::string& file,
                       std::size_t line) {
  return callee_id + " [" + file + ":" + std::to_string(line) + "]";
}

/// One call site with the lock state it was reached under.
struct CallRecord {
  CallSite call;
  std::vector<ActiveLock> held;  ///< held==true snapshot at the site
  std::string exempt;            ///< lock id a wait(lockvar) arg releases
};

/// Per-definition walk products.
struct DefWalk {
  const FunctionDef* def = nullptr;
  FunctionSummary direct;
  std::vector<CallRecord> calls;
};

std::string acquire_key(const AcquireFact& f) { return f.lock_id; }
std::string block_key(const BlockFact& f) {
  return f.what + "|" + f.file + ":" + std::to_string(f.line);
}
std::string emit_key(const EmitFact& f) {
  return f.what + "|" + f.file + ":" + std::to_string(f.line);
}
std::string write_key(const WriteFact& f) {
  return f.field_id + "|" + f.file + ":" + std::to_string(f.line);
}

/// Shared declaration-resolution order (mirrors SymbolTable::resolve):
/// enclosing class chain, then visible file-scope declarations, then a
/// unique visible member.
template <typename Decl>
std::string resolve_decl(const std::vector<Decl>& decls,
                         const std::string& name, const std::string& use_file,
                         const std::string& use_class_path,
                         const IncludeGraph& includes) {
  const std::set<std::string>& visible = includes.visible_from(use_file);
  const auto is_visible = [&](const Decl& d) {
    return d.file == use_file || visible.count(d.file) > 0;
  };

  std::string chain = use_class_path;
  while (!chain.empty()) {
    for (const Decl& d : decls) {
      if (d.name == name && d.class_path == chain && is_visible(d)) {
        return d.id;
      }
    }
    const std::size_t cut = chain.rfind("::");
    chain = cut == std::string::npos ? "" : chain.substr(0, cut);
  }

  const Decl* found = nullptr;
  for (const Decl& d : decls) {
    if (d.name == name && d.id == d.file + "::" + d.name && is_visible(d)) {
      if (found != nullptr && found->id != d.id) return "";
      found = &d;
    }
  }
  if (found != nullptr) return found->id;

  for (const Decl& d : decls) {
    if (d.name == name && is_visible(d)) {
      if (found != nullptr && found->id != d.id) return "";
      found = &d;
    }
  }
  return found != nullptr ? found->id : "";
}

}  // namespace

const FunctionSummary& Summaries::of(const std::string& id) const {
  static const FunctionSummary kEmpty;
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? kEmpty : it->second;
}

std::string Summaries::resolve_unordered(const std::string& name,
                                         const std::string& use_file,
                                         const std::string& use_class_path,
                                         const IncludeGraph& includes) const {
  return resolve_decl(unordered_decls_, name, use_file, use_class_path,
                      includes);
}

Summaries Summaries::build(const std::vector<SourceFile>& files,
                           const CallGraph& graph, const SymbolTable& symbols,
                           const IncludeGraph& includes) {
  Summaries out;

  // ------------------------------------------------------------------
  // Pre-pass: FR_GUARDED_BY fields and unordered-container variables.
  // ------------------------------------------------------------------
  for (const SourceFile& file : files) {
    ScopeTracker scopes;
    const std::vector<Token>& toks = file.tokens;
    for (std::size_t k = 0; k < toks.size(); ++k) {
      // <field> FR_GUARDED_BY( ... <guard> )
      if (toks[k].kind == TokKind::kIdent && k + 2 < toks.size() &&
          toks[k + 1].kind == TokKind::kIdent &&
          toks[k + 1].text == "FR_GUARDED_BY" && is_punct(toks[k + 2], "(")) {
        const LockRef guard = lock_ref_at(toks, k + 2);
        const std::string guard_id =
            guard.name.empty()
                ? ""
                : symbols.resolve(guard.name, file.path, scopes.class_path(),
                                  includes, guard.object);
        if (!guard_id.empty()) {
          GuardedField field;
          field.name = toks[k].text;
          field.class_path = scopes.class_path();
          field.guard_id = guard_id;
          field.file = file.path;
          field.line = toks[k].line;
          field.id = inside_class(scopes)
                         ? field.class_path + "::" + field.name
                         : field.file + "::" + field.name;
          if (!inside_class(scopes)) field.class_path.clear();
          out.guarded_fields_.push_back(std::move(field));
        }
      }

      // std::unordered_map< ... > <name> [;={,)]
      if (toks[k].kind == TokKind::kIdent &&
          unordered_types().count(toks[k].text) > 0 && k + 1 < toks.size() &&
          is_punct(toks[k + 1], "<")) {
        int depth = 0;
        std::size_t close = 0;
        for (std::size_t m = k + 1; m < toks.size() && m < k + 64; ++m) {
          if (is_punct(toks[m], "<")) ++depth;
          if (is_punct(toks[m], ">")) --depth;
          if (toks[m].kind == TokKind::kPunct && toks[m].text == ">>") {
            depth -= 2;
          }
          if (depth <= 0) {
            close = m;
            break;
          }
        }
        std::size_t n = close + 1;
        while (n < toks.size() &&
               (is_punct(toks[n], "&") || is_punct(toks[n], "*") ||
                is_punct(toks[n], "&&") ||
                (toks[n].kind == TokKind::kIdent &&
                 toks[n].text == "const"))) {
          ++n;
        }
        if (close != 0 && n + 1 < toks.size() &&
            toks[n].kind == TokKind::kIdent &&
            (is_punct(toks[n + 1], ";") || is_punct(toks[n + 1], "=") ||
             is_punct(toks[n + 1], "{") || is_punct(toks[n + 1], ",") ||
             is_punct(toks[n + 1], ")"))) {
          UnorderedDecl decl;
          decl.name = toks[n].text;
          decl.class_path = scopes.class_path();
          decl.file = file.path;
          decl.line = toks[n].line;
          decl.id = inside_class(scopes) ? decl.class_path + "::" + decl.name
                                         : decl.file + "::" + decl.name;
          if (!inside_class(scopes)) decl.class_path.clear();
          out.unordered_decls_.push_back(std::move(decl));
        }
      }

      scopes.advance(toks[k]);
    }
  }

  std::set<std::string> field_names;
  for (const GuardedField& f : out.guarded_fields_) field_names.insert(f.name);

  // ------------------------------------------------------------------
  // Walk every definition body under the shared LockWalker: direct
  // facts + the lock state at each call site.
  // ------------------------------------------------------------------
  std::vector<DefWalk> walks;
  walks.reserve(graph.functions().size());
  for (const FunctionDef& def : graph.functions()) {
    walks.push_back({&def, {}, {}});
  }

  for (const SourceFile& file : files) {
    // Defs of this file in body order, and call sites by token index
    // (inner definitions overwrite outer ones, so a call inside a
    // local-struct method is attributed to the innermost body).
    std::vector<DefWalk*> file_defs;
    std::map<std::size_t, const CallSite*> calls_at;
    for (DefWalk& w : walks) {
      if (w.def->file != file.path) continue;
      file_defs.push_back(&w);
      for (const CallSite& c : w.def->calls) calls_at[c.token_index] = &c;
    }
    std::sort(file_defs.begin(), file_defs.end(),
              [](const DefWalk* a, const DefWalk* b) {
                return a->def->body_begin < b->def->body_begin;
              });

    LockWalker walker(file, symbols, includes);
    std::vector<DefWalk*> stack;
    std::size_t next_def = 0;
    const std::vector<Token>& toks = file.tokens;

    for (std::size_t k = 0; k < toks.size(); ++k) {
      const bool entering =
          next_def < file_defs.size() &&
          file_defs[next_def]->def->body_begin == k;

      DefWalk* current = stack.empty() ? nullptr : stack.back();
      if (current != nullptr) {
        const auto call_it = calls_at.find(k);
        if (call_it != calls_at.end()) {
          const CallSite& call = *call_it->second;
          CallRecord rec;
          rec.call = call;
          for (const ActiveLock& lock : walker.active()) {
            if (lock.held) rec.held.push_back(lock);
          }
          // CondVar protocol: x.wait(lockvar) releases lockvar while
          // parked, so that lock does not count as held across it.
          if (call.member_call && wait_family().count(call.name) > 0 &&
              k + 1 < toks.size() && is_punct(toks[k + 1], "(")) {
            int depth = 0;
            for (std::size_t m = k + 1; m < toks.size() && rec.exempt.empty();
                 ++m) {
              if (is_punct(toks[m], "(")) ++depth;
              if (is_punct(toks[m], ")")) {
                --depth;
                if (depth == 0) break;
              }
              if (toks[m].kind != TokKind::kIdent) continue;
              for (const ActiveLock& lock : walker.active()) {
                if (!lock.var.empty() && lock.var == toks[m].text) {
                  rec.exempt = lock.id;
                  break;
                }
              }
            }
          }

          // Direct facts. Blocking primitives are recorded by name for
          // unresolved callees (and always for the wait family, whose
          // wrappers bottom out in std:: calls); emit primitives are
          // by-name unconditionally.
          const bool wait_call = wait_family().count(call.name) > 0;
          if (blocking_names().count(call.name) > 0 &&
              (call.callee_id.empty() || wait_call)) {
            BlockFact fact;
            fact.what = call.name;
            fact.released = rec.exempt;
            fact.file = file.path;
            fact.line = call.line;
            current->direct.blocks.emplace(block_key(fact), fact);
          }
          if (emit_names().count(call.name) > 0) {
            EmitFact fact;
            fact.what = call.name;
            fact.file = file.path;
            fact.line = call.line;
            current->direct.emits.emplace(emit_key(fact), fact);
          }
          current->calls.push_back(std::move(rec));
        }

        // Direct acquisition fact (the walker records the edge; the
        // summary records reachability).
        if ((toks[k].text == "MutexLock" || toks[k].text == "SharedLock") &&
            toks[k].kind == TokKind::kIdent && k + 2 < toks.size() &&
            toks[k + 1].kind == TokKind::kIdent && is_punct(toks[k + 2], "(")) {
          // The same resolution the walker is about to do.
          const LockRef ref = lock_ref_at(toks, k + 2);
          if (!ref.name.empty()) {
            const std::string id =
                symbols.resolve(ref.name, file.path,
                                walker.scopes().class_path(), includes,
                                ref.object);
            if (!id.empty()) {
              AcquireFact fact;
              fact.lock_id = id;
              fact.file = file.path;
              fact.line = toks[k].line;
              current->direct.acquires.emplace(acquire_key(fact), fact);
            }
          }
        }

        // Guarded-field write outside the guard.
        if (toks[k].kind == TokKind::kIdent &&
            field_names.count(toks[k].text) > 0 && k + 1 < toks.size()) {
          bool written = is_write_op(toks[k + 1]);
          if (!written && k >= 1 &&
              (is_punct(toks[k - 1], "++") || is_punct(toks[k - 1], "--"))) {
            written = true;
          }
          if (!written && k + 3 < toks.size() &&
              (is_punct(toks[k + 1], ".") || is_punct(toks[k + 1], "->")) &&
              toks[k + 2].kind == TokKind::kIdent &&
              mutator_names().count(toks[k + 2].text) > 0 &&
              is_punct(toks[k + 3], "(")) {
            written = true;
          }
          // `==` is its own token, so `= ` here is a real assignment.
          if (written) {
            const std::string field_id = resolve_decl(
                out.guarded_fields_, toks[k].text, file.path,
                walker.scopes().class_path(), includes);
            const GuardedField* field = nullptr;
            for (const GuardedField& f : out.guarded_fields_) {
              if (f.id == field_id) {
                field = &f;
                break;
              }
            }
            if (field != nullptr) {
              bool guard_held = false;
              for (const ActiveLock& lock : walker.active()) {
                if (lock.held && lock.id == field->guard_id) {
                  guard_held = true;
                  break;
                }
              }
              if (!guard_held) {
                WriteFact fact;
                fact.field_id = field->id;
                fact.guard_id = field->guard_id;
                fact.file = file.path;
                fact.line = toks[k].line;
                current->direct.writes.emplace(write_key(fact), fact);
              }
            }
          }
        }
      }

      walker.advance(k, nullptr);

      if (entering) {
        DefWalk* opened = file_defs[next_def];
        ++next_def;
        stack.push_back(opened);
        // FR_REQUIRES on the definition head: the caller holds these
        // for the whole body. Injected after the body brace opened so
        // the pseudo-lock pops with the body scope.
        for (const std::string& arg : opened->def->requires_args) {
          const std::string id = symbols.resolve(
              arg, file.path, opened->def->class_path, includes);
          if (!id.empty()) walker.assume_held(id, opened->def->line);
        }
      }
      while (!stack.empty() && k + 1 >= stack.back()->def->body_end) {
        stack.pop_back();
      }
    }
  }

  // ------------------------------------------------------------------
  // Fixpoint: union facts caller-ward across resolved call sites.
  // ------------------------------------------------------------------
  std::map<std::string, std::vector<const DefWalk*>> defs_by_id;
  for (const DefWalk& w : walks) defs_by_id[w.def->id].push_back(&w);
  for (const DefWalk& w : walks) {
    FunctionSummary& sum = out.by_id_[w.def->id];
    for (const auto& [key, fact] : w.direct.acquires) {
      sum.acquires.emplace(key, fact);
    }
    for (const auto& [key, fact] : w.direct.blocks) {
      sum.blocks.emplace(key, fact);
    }
    for (const auto& [key, fact] : w.direct.emits) sum.emits.emplace(key, fact);
  }

  bool changed = true;
  while (changed) {
    changed = false;
    for (auto& [id, defs] : defs_by_id) {
      FunctionSummary& sum = out.by_id_[id];
      for (const DefWalk* w : defs) {
        for (const CallRecord& rec : w->calls) {
          if (rec.call.callee_id.empty() || rec.call.callee_id == id) continue;
          const auto callee_it = out.by_id_.find(rec.call.callee_id);
          if (callee_it == out.by_id_.end()) continue;
          const FunctionSummary& callee = callee_it->second;
          const std::string step =
              chain_step(rec.call.callee_id, w->def->file, rec.call.line);
          for (const auto& [key, fact] : callee.acquires) {
            if (sum.acquires.count(key) > 0) continue;
            AcquireFact lifted = fact;
            lifted.path.insert(lifted.path.begin(), step);
            sum.acquires.emplace(key, std::move(lifted));
            changed = true;
          }
          for (const auto& [key, fact] : callee.blocks) {
            if (sum.blocks.count(key) > 0) continue;
            BlockFact lifted = fact;
            lifted.path.insert(lifted.path.begin(), step);
            sum.blocks.emplace(key, std::move(lifted));
            changed = true;
          }
          for (const auto& [key, fact] : callee.emits) {
            if (sum.emits.count(key) > 0) continue;
            EmitFact lifted = fact;
            lifted.path.insert(lifted.path.begin(), step);
            sum.emits.emplace(key, std::move(lifted));
            changed = true;
          }
        }
      }
    }
  }

  // Guarded writes: conditional propagation — a call site holding the
  // guard discharges the obligation; anything else lifts it.
  std::map<std::string, std::map<std::string, WriteFact>> pending;
  for (const DefWalk& w : walks) {
    for (const auto& [key, fact] : w.direct.writes) {
      pending[w.def->id].emplace(key, fact);
    }
  }
  changed = true;
  while (changed) {
    changed = false;
    for (auto& [id, defs] : defs_by_id) {
      for (const DefWalk* w : defs) {
        for (const CallRecord& rec : w->calls) {
          if (rec.call.callee_id.empty() || rec.call.callee_id == id) continue;
          const auto callee_it = pending.find(rec.call.callee_id);
          if (callee_it == pending.end()) continue;
          const std::string step =
              chain_step(rec.call.callee_id, w->def->file, rec.call.line);
          for (const auto& [key, fact] : callee_it->second) {
            bool discharged = false;
            for (const ActiveLock& lock : rec.held) {
              if (lock.id == fact.guard_id) {
                discharged = true;
                break;
              }
            }
            if (discharged) continue;
            auto& mine = pending[id];
            if (mine.count(key) > 0) continue;
            WriteFact lifted = fact;
            lifted.path.insert(lifted.path.begin(), step);
            mine.emplace(key, std::move(lifted));
            changed = true;
          }
        }
      }
    }
  }
  for (const auto& [id, facts] : pending) {
    FunctionSummary& sum = out.by_id_[id];
    for (const auto& [key, fact] : facts) sum.writes.emplace(key, fact);
  }

  // ------------------------------------------------------------------
  // Derived products.
  // ------------------------------------------------------------------
  std::set<std::string> has_callers;
  for (const DefWalk& w : walks) {
    for (const CallRecord& rec : w.calls) {
      if (!rec.call.callee_id.empty() && rec.call.callee_id != w.def->id) {
        has_callers.insert(rec.call.callee_id);
      }
    }
  }

  std::set<std::string> edge_seen;
  for (const DefWalk& w : walks) {
    for (const CallRecord& rec : w.calls) {
      if (rec.call.callee_id.empty() || rec.held.empty()) continue;
      const auto callee_it = out.by_id_.find(rec.call.callee_id);
      if (callee_it == out.by_id_.end()) continue;

      // Induced lock-order edges: held here → acquired somewhere down
      // the callee's call chain.
      for (const auto& [key, fact] : callee_it->second.acquires) {
        for (const ActiveLock& held : rec.held) {
          if (held.id == fact.lock_id) continue;
          const std::string dedup = held.id + "|" + fact.lock_id + "|" +
                                    w.def->file + "|" +
                                    std::to_string(held.line) + "|" +
                                    std::to_string(rec.call.line);
          if (!edge_seen.insert(dedup).second) continue;
          std::string via = chain_step(rec.call.callee_id, w.def->file,
                                       rec.call.line);
          for (const std::string& s : fact.path) via += " -> " + s;
          via += " acquires " + fact.lock_id + " at " + fact.file + ":" +
                 std::to_string(fact.line);
          out.induced_edges_.push_back({held.id, fact.lock_id, w.def->file,
                                        held.line, rec.call.line, via});
        }
      }
    }
  }

  // Blocking sites: one per call site at most. A direct (by-name)
  // primitive wins over the callee summary so a site never reports
  // twice.
  for (const DefWalk& w : walks) {
    for (const CallRecord& rec : w.calls) {
      std::vector<ActiveLock> held;
      for (const ActiveLock& lock : rec.held) {
        if (lock.id != rec.exempt) held.push_back(lock);
      }
      if (held.empty()) continue;

      const bool wait_call = wait_family().count(rec.call.name) > 0;
      const bool by_name =
          blocking_names().count(rec.call.name) > 0 &&
          (rec.call.callee_id.empty() || wait_call);
      if (by_name) {
        BlockingSite site;
        site.file = w.def->file;
        site.line = rec.call.line;
        site.function_id = w.def->id;
        site.held_id = held.back().id;
        site.held_line = held.back().line;
        site.what = rec.call.name;
        site.origin_file = w.def->file;
        site.origin_line = rec.call.line;
        out.blocking_sites_.push_back(std::move(site));
        continue;
      }
      if (rec.call.callee_id.empty()) continue;
      const auto callee_it = out.by_id_.find(rec.call.callee_id);
      if (callee_it == out.by_id_.end()) continue;
      for (const auto& [key, fact] : callee_it->second.blocks) {
        // The lock a condition wait releases does not block under
        // itself (instance-blind, like every lock identity here).
        const ActiveLock* pick = nullptr;
        for (const ActiveLock& lock : held) {
          if (lock.id != fact.released) pick = &lock;
        }
        if (pick == nullptr) continue;
        BlockingSite site;
        site.file = w.def->file;
        site.line = rec.call.line;
        site.function_id = w.def->id;
        site.held_id = pick->id;
        site.held_line = pick->line;
        site.what = fact.what;
        site.callee_id = rec.call.callee_id;
        site.origin_file = fact.file;
        site.origin_line = fact.line;
        site.path.push_back(
            chain_step(rec.call.callee_id, w.def->file, rec.call.line));
        site.path.insert(site.path.end(), fact.path.begin(), fact.path.end());
        out.blocking_sites_.push_back(std::move(site));
        break;
      }
    }
  }

  // Undischarged guarded writes surviving to a root function.
  std::set<std::string> reported_writes;
  for (const auto& [id, facts] : pending) {
    if (has_callers.count(id) > 0) continue;
    for (const auto& [key, fact] : facts) {
      if (!reported_writes.insert(key).second) continue;
      UnguardedWrite write;
      write.field_id = fact.field_id;
      write.guard_id = fact.guard_id;
      write.file = fact.file;
      write.line = fact.line;
      write.root_id = id;
      write.path = fact.path;
      out.unguarded_writes_.push_back(std::move(write));
    }
  }

  return out;
}

}  // namespace fr_analysis
