// corm-tidy: project contract audits (`corm-tidy --audit`).
//
// One exhaustiveness contract that rots silently without a machine check:
// every named injection site in src/sim/fault_injector.h (the fault_sites
// namespace) must be (a) exercised by at least one test under tests/ —
// referenced by constant name or by its literal site string — and (b)
// listed in DESIGN.md §6.2's fault table (the lines between the
// fault-site-table-begin/end markers). A site wired into the substrate but
// never armed by a test is untested failure-handling code; a site missing
// from the table is an undocumented failure mode. Both directions are
// checked: a table row whose site no longer exists fails too.
//
// Node counters need no audit: CORM_NODE_COUNTERS (src/core/corm_node.h)
// generates the shard, the snapshot and the sum from one list.
//
// Exit codes: 0 the contract holds, 1 violations, 2 the tree is missing a
// prerequisite (no marker block, no fault_injector.h, ...) — an audit that
// cannot run must not report success.

#ifndef CORM_TIDY_AUDITS_H_
#define CORM_TIDY_AUDITS_H_

#include <ostream>
#include <string>

namespace corm_tidy {

// Runs the audit against the repo rooted at `root` (expects src/, tests/
// and DESIGN.md under it).
int RunAudits(const std::string& root, std::ostream& os);

}  // namespace corm_tidy

#endif  // CORM_TIDY_AUDITS_H_
