// corm-tidy: wire-ABI extraction and pinning (`corm-tidy --wire-abi`).
//
// CoRM's correctness depends on byte-exact struct layouts that cross the
// (simulated) wire: GlobalAddr is memcpy'd into RPC payloads and handed to
// clients (paper Table 2), ReplRecordHeader / ReplObjectHeader are
// RDMA-written raw into replica ingress rings (DESIGN.md §11), and the
// packed object-header word is the unit of the seqlock protocol read
// one-sidedly by remote clients. The sources pin these with static_asserts;
// this extractor turns them into a reviewable artifact:
//
//   corm-tidy --wire-abi --src src   >  canonical JSON on stdout
//
// committed as tools/corm_tidy/wire_abi.json and diffed in CI. A layout
// change now shows up as a golden-file diff in the PR — an explicit,
// reviewed ABI break — rather than as a static_assert edit buried in the
// same commit that changed the struct.
//
// The layout computation is deliberately token-based with an explicit
// type-size table (standard fixed-width types plus the project aliases
// VAddr/RKey/LockState), NOT a compiler sizeof pass: the golden must be
// byte-identical on every host, whatever its compiler, and the
// wire structs use exactly the C layout rules the table encodes (verified
// against the sources' own sizeof static_asserts — a mismatch is a hard
// error, not a silent difference).

#ifndef CORM_TIDY_WIRE_ABI_H_
#define CORM_TIDY_WIRE_ABI_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "source_file.h"

namespace corm_tidy {

struct WireField {
  std::string name;
  std::string type;     // as spelled (last identifier of the type)
  uint32_t count = 1;   // array extent, 1 for scalars
  uint32_t offset = 0;
  uint32_t size = 0;    // total bytes (element size * count)
};

struct WireStruct {
  std::string name;
  std::string file;
  uint32_t size = 0;
  uint32_t align = 0;
  std::vector<WireField> fields;
};

struct WireAbi {
  std::vector<WireStruct> structs;       // sorted by name
  std::string header_probe_word;         // object header bit-layout pin,
                                         // canonical "0x..." form
};

// Extracts the wire structs (GlobalAddr, ReplRecordHeader,
// ReplObjectHeader) and the object-header probe word from the file set.
// Returns false with *err set when a root struct is missing, a field type
// is not in the size table, or a computed size contradicts the source's
// own `static_assert(sizeof(S) == N)`.
bool ExtractWireAbi(const std::vector<const SourceFile*>& files, WireAbi* out,
                    std::string* err);

// Canonical JSON form (stable key order, 2-space indent, trailing newline):
// the exact bytes committed to tools/corm_tidy/wire_abi.json.
void PrintWireAbi(const WireAbi& abi, std::ostream& os);

}  // namespace corm_tidy

#endif  // CORM_TIDY_WIRE_ABI_H_
