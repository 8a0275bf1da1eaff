// Pluggable remote synchronization for the client data path (DESIGN.md
// §12; ROADMAP open item 4). The SIGMOD'23 guidelines paper "Design
// Guidelines for Correct, Efficient, and Scalable Synchronization using
// One-Sided RDMA" shows lock-scheme choice swings one-sided throughput by
// multiples — and that several popular schemes are silently incorrect.
// CoRM's answer is layered: every scheme here runs *above* the FaRM-style
// snapshot validation (header lock state + cacheline versions/checksum), so
// the worst a broken lock protocol can cost is a wasted retry, never a torn
// read handed to the application. The schemes:
//
//   kOptimistic   paper §3.2: lock-free versioned read, no lock traffic at
//                 all; conflicts surface as torn/locked validation failures
//                 retried by the caller's backoff loop.
//   kCasSpinlock  RDMA-CAS test-and-set spinlock over a per-node lock table
//                 with RetryPolicy-bounded backoff and a generation-stamped
//                 lease so a crashed holder (fault site sync.holder_crash)
//                 is stolen from instead of wedging every peer.
//
// Layering: this library sits below core (it links only rdma/sim/common).
// Everything node- or client-specific — how lock words are read/CAS'd, how
// object snapshots are validated, where stats land — goes through the
// SyncMedium interface that core::Context implements.

#ifndef CORM_SYNC_SYNC_SCHEME_H_
#define CORM_SYNC_SYNC_SCHEME_H_

#include <cstdint>
#include <memory>
#include <string_view>

#include "common/retry.h"
#include "common/status.h"
#include "core/addr.h"
#include "rdma/rnic.h"

namespace corm::sync {

enum class SchemeKind : uint8_t {
  kOptimistic = 0,
  kCasSpinlock = 1,
};

inline constexpr int kNumSchemeKinds = 2;

// Canonical names used by config parsing, benches, and CI ("optimistic",
// "cas_spinlock").
const char* SchemeName(SchemeKind kind);
bool ParseSchemeKind(std::string_view name, SchemeKind* out);

// Remote coordinates of a node's sync-lock table: `slots` lock words
// hashed by object address. Lives in registered memory like a ReplLogRing.
struct LockTableCoords {
  sim::VAddr base = 0;
  rdma::RKey r_key = 0;
  uint32_t slots = 0;
};

// Events a scheme reports for stats attribution (NodeStatShard sync_*
// counters plus the client's own ClientStats).
enum class SyncEvent : uint8_t {
  kLockAcquire,   // a lock (or read admission) was obtained
  kLockConflict,  // an attempt observed a competing holder
  kLockSteal,     // a lease expired and the word was taken from its holder
  kLockTimeout,   // the RetryPolicy budget expired without the lock
};

// The medium through which a scheme touches remote memory: implemented by
// core::Context (one-sided verbs through its QP, or CPU atomics when
// colocated). Lock words are 8-byte remote words in the lock table;
// SnapshotRead is the validated object read every scheme ultimately guards.
class SyncMedium {
 public:
  virtual ~SyncMedium() = default;

  // One-sided CAS; `*prior` gets the word's previous contents (the CAS won
  // iff *prior == expected).
  virtual Status LockCas(rdma::RKey r_key, sim::VAddr addr, uint64_t expected,
                         uint64_t desired, uint64_t* prior) = 0;
  // Validated object snapshot read (RDMA read + header/lock/version
  // checks): kOk, or kObjectMoved / kObjectLocked / kTornRead / kQpBroken.
  virtual Status SnapshotRead(const core::GlobalAddr& addr, void* buf,
                              size_t size) = 0;
  virtual void CountSyncEvent(SyncEvent event) = 0;
  // Deterministic jitter seed for this operation's backoff stream.
  virtual uint64_t SyncJitterSeed() = 0;
};

struct SchemeOptions {
  // Bounds every lock-acquire loop (deadline + backoff). Defaults match
  // RetryPolicy's (2 s deadline, 1-64 us exponential backoff).
  RetryPolicy lock_retry;
  // How long a waiter watches an *unchanged* held lock word before it may
  // steal (crashed-holder recovery). Wall-clock, like every Deadline.
  uint64_t lease_ns = 2'000'000;
};

// --- Lock word layouts (packed 64-bit words in the lock table). -----------

// CAS-spinlock word: held flag, 15-bit owner, 48-bit generation. The
// generation is bumped by every acquire *and* every steal, so a stale
// release CAS (from a holder that was stolen from after its lease expired)
// compares against a word that no longer exists and fails harmlessly — the
// guidelines paper's fix for the unlock-after-steal race.
struct CasLockWord {
  bool held = false;
  uint16_t owner = 0;  // 15 bits; 0 = none
  uint64_t gen = 0;    // 48 bits, wraps

  constexpr uint64_t Pack() const {
    return (static_cast<uint64_t>(held) << 63) |
           (static_cast<uint64_t>(owner & 0x7fff) << 48) |
           (gen & 0xffff'ffff'ffffULL);
  }
  static constexpr CasLockWord Unpack(uint64_t w) {
    CasLockWord l;
    l.held = (w >> 63) != 0;
    l.owner = static_cast<uint16_t>((w >> 48) & 0x7fff);
    l.gen = w & 0xffff'ffff'ffffULL;
    return l;
  }
};

// --- The scheme interface. -------------------------------------------------

// One instance per client context (single-threaded, like the context that
// owns it; a context has at most one write lock outstanding at a time).
class RemoteSyncScheme {
 public:
  virtual ~RemoteSyncScheme() = default;

  virtual SchemeKind kind() const = 0;

  // One guarded read of the object behind `addr` into `buf`. The scheme
  // decides what synchronization precedes/follows the validated snapshot.
  virtual Status GuardedRead(const core::GlobalAddr& addr, void* buf,
                             size_t size) = 0;

  // Write-side bracket around the RPC write path. Lock schemes serialize
  // scheme-abiding writers (and readers) here; the server's own object
  // seqlock still guards the bytes, so these may be no-ops (kOptimistic).
  virtual Status AcquireWrite(const core::GlobalAddr& addr) = 0;
  virtual Status ReleaseWrite(const core::GlobalAddr& addr) = 0;

 protected:
  RemoteSyncScheme(SyncMedium* medium, const LockTableCoords& table,
                   const SchemeOptions& options, uint16_t owner_id)
      : medium_(medium), table_(table), options_(options), owner_id_(owner_id) {}

  // The lock word guarding `addr`: slot-hashed over the table so unrelated
  // hot objects rarely collide (collisions are safe — just extra
  // contention on the shared word).
  sim::VAddr LockWordAddr(const core::GlobalAddr& addr) const;

  SyncMedium* const medium_;
  const LockTableCoords table_;
  const SchemeOptions options_;
  const uint16_t owner_id_;  // nonzero, 15-bit unique per scheme instance
};

// Factory; `medium` must outlive the scheme. Assigns a process-unique
// owner id.
std::unique_ptr<RemoteSyncScheme> MakeScheme(SchemeKind kind,
                                             SyncMedium* medium,
                                             const LockTableCoords& table,
                                             const SchemeOptions& options);

}  // namespace corm::sync

#endif  // CORM_SYNC_SYNC_SCHEME_H_
