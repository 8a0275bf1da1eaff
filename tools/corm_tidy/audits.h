// corm-tidy: project contract audits (`corm-tidy --audit`).
//
// Two exhaustiveness contracts that rot silently without a machine check:
//
//   Fault sites.  Every named injection site in src/sim/fault_injector.h
//   (the fault_sites namespace) must be (a) exercised by at least one test
//   under tests/ — referenced by constant name or by its literal site
//   string — and (b) listed in DESIGN.md §6.2's fault table (the lines
//   between the fault-site-table-begin/end markers). A site wired into the
//   substrate but never armed by a test is untested failure-handling code;
//   a site missing from the table is an undocumented failure mode. Both
//   directions are checked: a table row whose site no longer exists fails
//   too.
//
//   Sharded counters.  Every StatCounter field of NodeStatShard
//   (src/core/corm_node.h) must (a) appear as a field of the NodeStats
//   snapshot, (b) be summed in CormNode::stats()'s aggregation
//   (`out.N += s.N.Load()` in corm_node.cc) — the line that is forgotten
//   when a counter is added — and (c) be listed in EXPERIMENTS.md's stats
//   schema (the stats-schema-begin/end block), which is what bench scripts
//   and plots consume. Again both directions: a schema row for a counter
//   that was removed fails. A NodeStats field with no shard counter behind
//   it is a gauge: stats() must read it directly (`out.N = ...`), and the
//   schema must list it too.
//
// Exit codes: 0 all contracts hold, 1 violations, 2 the tree is missing a
// prerequisite (no marker block, no fault_injector.h, ...) — an audit that
// cannot run must not report success.

#ifndef CORM_TIDY_AUDITS_H_
#define CORM_TIDY_AUDITS_H_

#include <ostream>
#include <string>

namespace corm_tidy {

// Runs both audits against the repo rooted at `root` (expects src/, tests/,
// DESIGN.md, EXPERIMENTS.md under it).
int RunAudits(const std::string& root, std::ostream& os);

}  // namespace corm_tidy

#endif  // CORM_TIDY_AUDITS_H_
