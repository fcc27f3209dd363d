#include "analysis/lock_graph.h"

#include <algorithm>
#include <functional>
#include <set>

namespace fr_analysis {

namespace {

bool is_punct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool is_lock_type(const Token& t) {
  return t.kind == TokKind::kIdent &&
         (t.text == "MutexLock" || t.text == "SharedLock");
}

}  // namespace

void LockWalker::assume_held(const std::string& id, std::size_t line) {
  active_.push_back({id, "", scopes_.depth(), line, true});
}

void LockWalker::advance(std::size_t k, std::vector<LockEdge>* edges) {
  const std::vector<Token>& toks = file_.tokens;
  const Token& t = toks[k];

  // --- Scoped-lock acquisition: MutexLock <var> ( <expr> ) -----------
  if (is_lock_type(t) && k + 2 < toks.size() &&
      toks[k + 1].kind == TokKind::kIdent && is_punct(toks[k + 2], "(")) {
    // Trailing identifier of the constructor argument names the lock
    // (qualified forms like pool_.mutex_ or fx::g_a resolve through
    // the symbol table).
    const LockRef ref = lock_ref_at(toks, k + 2);
    if (!ref.name.empty()) {
      std::string id = symbols_.resolve(ref.name, file_.path,
                                        scopes_.class_path(), includes_,
                                        ref.object);
      if (id.empty()) {
        // Unresolvable: a file-local identity keeps the acquisition
        // tracked without merging unrelated locks across files.
        id = file_.path + "::<" + ref.expr + ">";
      }
      if (edges != nullptr) {
        for (const ActiveLock& held : active_) {
          if (!held.held || held.id == id) continue;
          edges->push_back({held.id, id, file_.path, held.line, t.line, ""});
        }
      }
      active_.push_back(
          {std::move(id), toks[k + 1].text, scopes_.depth(), t.line, true});
    }
  }

  // --- Explicit <var>.unlock() / <var>.lock() on a scoped lock -------
  if (t.kind == TokKind::kIdent && k + 3 < toks.size() &&
      is_punct(toks[k + 1], ".") && toks[k + 2].kind == TokKind::kIdent &&
      (toks[k + 2].text == "unlock" || toks[k + 2].text == "lock") &&
      is_punct(toks[k + 3], "(")) {
    for (auto it = active_.rbegin(); it != active_.rend(); ++it) {
      if (it->var == t.text) {
        it->held = toks[k + 2].text == "lock";
        if (it->held) it->line = t.line;
        break;
      }
    }
  }

  scopes_.advance(t);
  if (is_punct(t, "}")) {
    std::erase_if(active_, [&](const ActiveLock& lock) {
      return lock.depth > scopes_.depth();
    });
  }
}

LockGraph LockGraph::build(const std::vector<SourceFile>& files,
                           const SymbolTable& symbols,
                           const IncludeGraph& includes) {
  LockGraph graph;
  for (const SourceFile& file : files) {
    LockWalker walker(file, symbols, includes);
    for (std::size_t k = 0; k < file.tokens.size(); ++k) {
      walker.advance(k, &graph.edges_);
    }
  }
  graph.index_edges();
  return graph;
}

LockGraph LockGraph::from_edges(std::vector<LockEdge> edges) {
  LockGraph graph;
  graph.edges_ = std::move(edges);
  graph.index_edges();
  return graph;
}

void LockGraph::index_edges() {
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    adjacency_[edges_[e].from].push_back(e);
  }
}

std::vector<LockCycle> LockGraph::find_cycles() const {
  std::vector<LockCycle> cycles;
  std::set<std::string> reported;  // canonical node sequences
  constexpr std::size_t kMaxCycles = 100;

  std::vector<std::string> nodes;
  nodes.reserve(adjacency_.size());
  for (const auto& [node, _] : adjacency_) nodes.push_back(node);
  // std::map iteration is already sorted; keep the invariant explicit.
  std::sort(nodes.begin(), nodes.end());

  for (const std::string& start : nodes) {
    // DFS visiting only nodes >= start, so each elementary cycle is
    // discovered exactly once, rooted at its smallest node.
    std::vector<std::size_t> path;  // edge indices
    std::set<std::string> on_path{start};

    const std::function<void(const std::string&)> dfs =
        [&](const std::string& u) {
          if (cycles.size() >= kMaxCycles) return;
          const auto it = adjacency_.find(u);
          if (it == adjacency_.end()) return;
          for (const std::size_t e : it->second) {
            const std::string& v = edges_[e].to;
            if (v < start) continue;
            if (v == start) {
              path.push_back(e);
              std::string canon;
              for (const std::size_t pe : path) canon += edges_[pe].from + ";";
              if (reported.insert(canon).second) {
                LockCycle cycle;
                for (const std::size_t pe : path) {
                  cycle.edges.push_back(edges_[pe]);
                }
                cycles.push_back(std::move(cycle));
              }
              path.pop_back();
              continue;
            }
            if (on_path.count(v) > 0) continue;
            path.push_back(e);
            on_path.insert(v);
            dfs(v);
            on_path.erase(v);
            path.pop_back();
          }
        };
    dfs(start);
  }
  return cycles;
}

}  // namespace fr_analysis
