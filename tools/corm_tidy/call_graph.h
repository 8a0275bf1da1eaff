// corm-tidy: whole-program call graph and function summaries (DESIGN.md
// §10.3).
//
// PR 6's checks were per-function: a remap point had to be *textually*
// visible (a call spelled `Step(...)`) and a lookup had to be assigned
// *directly* from a `Lookup*` call. Hide either behind a one-line helper
// and the hazard went dark. This module makes the helpers visible:
//
//   1. A definition pass over every loaded file finds function definitions
//      (token-level heuristic: an identifier, a balanced parameter list,
//      optional const/noexcept/override/ctor-initializer trailer, then a
//      brace — deliberately simple, and wrong only in ways that cost
//      precision, never soundness of the fixpoint below).
//   2. Each definition gets a local summary: the callees it names, whether
//      it directly calls a remap point / lookup / pin idiom, and whether a
//      `return` statement carries a lookup result.
//   3. A worklist fixpoint propagates the three interprocedural facts over
//      the (name-keyed) call graph:
//
//        may-advance-remap      reaches CompactionEngine::Step,
//                               Worker::DrainInbox/DrainReplIngress, ... —
//                               transitively through any chain of calls
//        returns-lookup-tainted returns a Block*/entry derived from a
//                               directory/object lookup (directly, or by
//                               returning another tainted function's result)
//        pins-or-validates      establishes a sanctioned revalidation
//                               (kCompacting/Pin*/Validate/epoch) before
//                               returning — callers may treat the call as a
//                               revalidation point
//
// Summaries are keyed by *bare* name: a token scan cannot resolve
// overloads or receivers, so two unrelated methods that share a name share
// a summary. That conflation only ever merges facts (a name is
// remap-advancing if ANY function of that name is), i.e. the analysis
// over-approximates — the linter's usual trade, biased toward firing, paid
// back with NOLINT + rationale where a human can see the conflation.
//
// The same machinery serves the lock-order pass (lock_order.h), which
// propagates may-acquire rank sets over the same graph.

#ifndef CORM_TIDY_CALL_GRAPH_H_
#define CORM_TIDY_CALL_GRAPH_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "source_file.h"

namespace corm_tidy {

// One function definition found in the token stream.
struct FunctionDef {
  std::string name;        // bare name (Method, not Class::Method)
  std::string qualifier;   // "Class" for Class::Method, "" otherwise
  const SourceFile* file = nullptr;
  int line = 0;            // line of the name token
  size_t body_begin = 0;   // token index of the opening `{`
  size_t body_end = 0;     // token index one past the closing `}`
  std::set<std::string> callees;  // bare names called in the body
};

// The merged, name-keyed summary the dataflow passes consume.
struct FunctionSummary {
  bool advances_remap = false;  // may (transitively) advance compaction
  bool returns_lookup = false;  // returns a lookup-derived pointer/entry
  bool pins_or_validates = false;  // performs a sanctioned revalidation
  // Ranks this function may (transitively) acquire; filled by the
  // lock-order pass. Values are LockRank enum integers.
  std::set<int> acquires;
};

class CallGraph {
 public:
  // Builds definitions + local summaries for every file, then runs the
  // fixpoint. Files must outlive the graph.
  static CallGraph Build(const std::vector<const SourceFile*>& files);

  // Summary for a bare callee name; nullptr when no definition with that
  // name was loaded (an external/library call — no interprocedural facts).
  const FunctionSummary* SummaryFor(const std::string& name) const;

  const std::vector<FunctionDef>& definitions() const { return defs_; }

  // All definitions sharing a bare name (conflation set).
  std::vector<const FunctionDef*> DefsNamed(const std::string& name) const;

  // Root predicates shared with the intra-procedural pass: the textual
  // remap-point / lookup / revalidation sets from PR 6 (remap_hazard.cc).
  static bool IsRemapRootName(const std::string& name);
  static bool IsLookupRootName(const std::string& name);

  // Mutable access for the lock-order pass to deposit acquire sets before
  // its own fixpoint.
  std::map<std::string, FunctionSummary>& summaries() { return summaries_; }

 private:
  std::vector<FunctionDef> defs_;
  std::map<std::string, FunctionSummary> summaries_;
};

// Scans one file's token stream for function definitions (exposed for the
// lock-order pass, which walks bodies itself).
std::vector<FunctionDef> FindFunctionDefs(const SourceFile& f);

}  // namespace corm_tidy

#endif  // CORM_TIDY_CALL_GRAPH_H_
