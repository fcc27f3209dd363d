// Mutex symbol table (DESIGN.md §11).
//
// Collects every Mutex/SharedMutex (and raw std::mutex/shared_mutex)
// declaration in the corpus together with the thread-safety
// annotations that reference it (FR_GUARDED_BY / FR_PT_GUARDED_BY /
// FR_REQUIRES / FR_ACQUIRE / ...). The lock-order pass resolves
// MutexLock acquisition expressions against this table, and the
// annotation-coverage gate (`fr_analyze --coverage`) reports
// annotated-vs-bare counts per directory and detects mutexes that lost
// their last FR_GUARDED_BY relative to the committed baseline.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/include_graph.h"
#include "analysis/token.h"

namespace fr_analysis {

struct MutexDecl {
  /// Stable cross-file identity: "<namespace::class>::<name>" for
  /// members, "<decl-file>::<name>" for file-scope mutexes (so every TU
  /// including the same header agrees on the identity).
  std::string id;
  std::string name;        ///< declared identifier
  std::string type;        ///< "Mutex", "SharedMutex", "std::mutex", ...
  bool wrapper = false;    ///< annotated wrapper type (Mutex/SharedMutex)
  std::string class_path;  ///< enclosing namespace/class path ("" = file)
  std::string file;
  std::size_t line = 0;
  std::size_t guarded_refs = 0;  ///< FR_GUARDED_BY/FR_PT_GUARDED_BY naming it
  std::size_t other_refs = 0;    ///< FR_REQUIRES/FR_ACQUIRE/... naming it
};

/// The lock an annotation or scoped-lock argument names: the trailing
/// identifier of the parenthesized expression, plus the identifier it
/// is accessed through (`pool_` in `pool_.mutex_`; "" for a bare name
/// or a `this->` access).
struct LockRef {
  std::string name;
  std::string object;
  std::string expr;  ///< the argument's tokens, concatenated
};

/// Reads the LockRef of the parenthesized argument opening at `open`
/// (which must be "("). `name` is "" when the argument has no
/// identifier.
[[nodiscard]] LockRef lock_ref_at(const std::vector<Token>& toks,
                                  std::size_t open);

class SymbolTable {
 public:
  [[nodiscard]] static SymbolTable build(const std::vector<SourceFile>& files,
                                         const IncludeGraph& includes);

  [[nodiscard]] const std::vector<MutexDecl>& mutexes() const noexcept {
    return mutexes_;
  }

  /// Resolves a lock name used at `use_file` inside `use_class_path` to
  /// a declaration identity. A member access (`object` non-empty) first
  /// resolves through the owning class: when every visible declaration
  /// of `object` has the same type and exactly one visible mutex `name`
  /// is a member of that class, that mutex is the answer. Otherwise the
  /// lookup order mirrors the language: the enclosing class chain
  /// first, then file-scope declarations visible to the TU, then a
  /// unique TU-visible member match. Returns "" when nothing (or
  /// nothing unambiguous) matches.
  [[nodiscard]] std::string resolve(const std::string& name,
                                    const std::string& use_file,
                                    const std::string& use_class_path,
                                    const IncludeGraph& includes,
                                    const std::string& object = "") const;

 private:
  /// A variable, member or parameter whose declared type is a class
  /// owning a mutex member — the only objects a lock is reached through.
  struct ObjectDecl {
    std::string name;
    std::string type;  ///< unqualified class name
    std::string file;
  };

  std::vector<MutexDecl> mutexes_;
  std::vector<ObjectDecl> objects_;
};

}  // namespace fr_analysis
