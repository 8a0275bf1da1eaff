#include "sync/sync_scheme.h"

#include <atomic>

#include "common/logging.h"
#include "sync/scheme_internal.h"

namespace corm::sync {

namespace {

// SplitMix64 finalizer: full-avalanche slot hash so consecutive slots in one
// block spread across the table instead of contending on neighbours.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Process-wide owner-id mint: 15-bit, nonzero, wraps. Collisions after wrap
// are tolerable — owner ids only attribute holds, correctness rides on the
// generation field.
std::atomic<uint32_t> g_next_owner{0};

uint16_t MintOwnerId() {
  return static_cast<uint16_t>(
      1 + g_next_owner.fetch_add(1, std::memory_order_relaxed) % 0x7ffe);
}

}  // namespace

const char* SchemeName(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kOptimistic:
      return "optimistic";
    case SchemeKind::kCasSpinlock:
      return "cas_spinlock";
  }
  return "unknown";
}

bool ParseSchemeKind(std::string_view name, SchemeKind* out) {
  if (name == "optimistic") {
    *out = SchemeKind::kOptimistic;
  } else if (name == "cas_spinlock") {
    *out = SchemeKind::kCasSpinlock;
  } else {
    return false;
  }
  return true;
}

sim::VAddr RemoteSyncScheme::LockWordAddr(const core::GlobalAddr& addr) const {
  CORM_CHECK(table_.slots > 0) << "sync-lock table has no slots";
  // Slots are >= 16-byte objects; dropping the low bits before hashing keeps
  // the stream identical for the slot's whole lifetime.
  const uint64_t slot = Mix64(addr.vaddr >> 4) % table_.slots;
  return table_.base + slot * sizeof(uint64_t);
}

std::unique_ptr<RemoteSyncScheme> MakeScheme(SchemeKind kind,
                                             SyncMedium* medium,
                                             const LockTableCoords& table,
                                             const SchemeOptions& options) {
  const uint16_t owner = MintOwnerId();
  switch (kind) {
    case SchemeKind::kOptimistic:
      return internal::MakeOptimisticScheme(medium, table, options, owner);
    case SchemeKind::kCasSpinlock:
      return internal::MakeCasSpinlockScheme(medium, table, options, owner);
  }
  CORM_CHECK(false) << "unknown sync scheme kind";
  return nullptr;
}

}  // namespace corm::sync
