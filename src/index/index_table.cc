#include "index/index_table.h"

#include <algorithm>
#include <atomic>

#include "common/retry.h"
#include "common/sanitizer.h"

namespace corm::index {

namespace {

// A bucket seq hold spans a single 32-byte entry rewrite with no waits
// inside, so this budget only expires against a genuinely wedged peer —
// which the seqlock design makes impossible to hold forever, but rule 8
// demands the bound anyway.
constexpr uint64_t kBucketLockBudgetNs = 50'000'000;

// Entry bytes are written with RacyCopy: clients snapshot buckets through
// the RNIC's uninstrumented one-sided memcpy, and the seq word (not the
// byte ranges) is the synchronization — the same discipline as the object
// seqlock's payload path.
void StoreEntry(IndexEntry* dst, const IndexEntry& v) {
  RacyCopy(dst, &v, sizeof(IndexEntry));
}

}  // namespace

IndexTable::IndexTable(uint8_t* base, uint32_t buckets)
    : base_(base), buckets_(buckets) {}

IndexBucket* IndexTable::Bucket(uint64_t i) const {
  return reinterpret_cast<IndexBucket*>(base_ + kTableHeaderBytes +
                                        i * sizeof(IndexBucket));
}

uint64_t IndexTable::Epoch() const {
  return std::atomic_ref<uint64_t>(*reinterpret_cast<uint64_t*>(base_))
      .load(std::memory_order_acquire);
}

uint64_t IndexTable::SealEpoch(uint64_t* fenced_live_entries) {
  const uint64_t sealed =
      std::atomic_ref<uint64_t>(*reinterpret_cast<uint64_t*>(base_))
          .fetch_add(1, std::memory_order_acq_rel) +
      1;
  if (fenced_live_entries != nullptr) {
    // Every live entry minted under an older epoch is now fenced: a
    // one-sided lookup that sees it must fall back to the RPC path, which
    // repairs it under the new epoch.
    uint64_t fenced = 0;
    for (uint64_t i = 0; i < buckets_; ++i) {
      IndexBucket* b = Bucket(i);
      if (!LockBucket(b)) continue;
      for (const IndexEntry& e : b->entries) {
        if (e.Live() && e.fence_epoch != static_cast<uint16_t>(sealed)) {
          ++fenced;
        }
      }
      UnlockBucket(b);
    }
    *fenced_live_entries = fenced;
  }
  return sealed;
}

bool IndexTable::LockBucket(IndexBucket* b) const {
  std::atomic_ref<uint64_t> seq(b->seq);
  const Deadline deadline(kBucketLockBudgetNs);
  for (;;) {
    uint64_t cur = seq.load(std::memory_order_acquire);
    if ((cur & 1) == 0 &&
        seq.compare_exchange_weak(cur, cur + 1, std::memory_order_acq_rel)) {
      return true;
    }
    if (deadline.Expired()) return false;
  }
}

void IndexTable::UnlockBucket(IndexBucket* b) const {
  std::atomic_ref<uint64_t> seq(b->seq);
  seq.store(seq.load(std::memory_order_relaxed) + 1,
            std::memory_order_release);
}

int IndexTable::FindSlot(const IndexBucket* b, uint64_t key) {
  for (size_t s = 0; s < kEntriesPerBucket; ++s) {
    if (b->entries[s].Live() && b->entries[s].key == key) {
      return static_cast<int>(s);
    }
  }
  return -1;
}

Status IndexTable::Insert(uint64_t key, const core::GlobalAddr& addr,
                          core::GlobalAddr* existing) {
  IndexBucket* b1 = Bucket(BucketOf(key, buckets_));
  IndexBucket* b2 = Bucket(AltBucketOf(key, buckets_));
  // Both candidate buckets are held for the whole decision so two racing
  // inserts of the same key cannot mint duplicate entries in the two
  // buckets. Address-ordered acquisition keeps the pair deadlock-free.
  IndexBucket* lo = std::min(b1, b2);
  IndexBucket* hi = std::max(b1, b2);
  if (!LockBucket(lo)) return Status::Timeout("index bucket lock");
  if (hi != lo && !LockBucket(hi)) {
    UnlockBucket(lo);
    return Status::Timeout("index bucket lock");
  }

  Status st;
  IndexBucket* target = nullptr;
  int slot = FindSlot(b1, key);
  if (slot >= 0) {
    target = b1;
  } else if ((slot = FindSlot(b2, key)) >= 0) {
    target = b2;
  }
  IndexEntry next;
  next.key = key;
  next.addr = addr;
  next.fence_epoch = static_cast<uint16_t>(Epoch());
  next.state = IndexEntry::kLive;
  if (target != nullptr) {
    *existing = target->entries[slot].addr;
    st = Status::AlreadyExists("key already indexed");
  } else {
    for (IndexBucket* b : {b1, b2}) {
      for (size_t s = 0; s < kEntriesPerBucket && target == nullptr; ++s) {
        if (!b->entries[s].Live()) {
          target = b;
          slot = static_cast<int>(s);
        }
      }
      if (target != nullptr) break;
    }
    if (target != nullptr) {
      next.hint_version = 1;
      StoreEntry(&target->entries[slot], next);
    } else {
      st = Status::OutOfMemory(
          "index bucket pair full; grow CormConfig::index_buckets");
    }
  }

  if (hi != lo) UnlockBucket(hi);
  UnlockBucket(lo);
  return st;
}

bool IndexTable::Remove(uint64_t key, IndexEntry* removed) {
  IndexBucket* b1 = Bucket(BucketOf(key, buckets_));
  IndexBucket* b2 = Bucket(AltBucketOf(key, buckets_));
  bool found = false;
  for (IndexBucket* b : {b1, b2}) {
    if (!LockBucket(b)) return false;
    const int slot = FindSlot(b, key);
    if (slot >= 0) {
      if (removed != nullptr) {
        RacyCopy(removed, &b->entries[slot], sizeof(IndexEntry));
      }
      StoreEntry(&b->entries[slot], IndexEntry{});
      found = true;
    }
    UnlockBucket(b);
    if (found || b1 == b2) break;
  }
  return found;
}

bool IndexTable::Lookup(uint64_t key, IndexEntry* out) const {
  IndexBucket* b1 = Bucket(BucketOf(key, buckets_));
  IndexBucket* b2 = Bucket(AltBucketOf(key, buckets_));
  for (IndexBucket* b : {b1, b2}) {
    if (!LockBucket(b)) return false;
    const int slot = FindSlot(b, key);
    if (slot >= 0) {
      RacyCopy(out, &b->entries[slot], sizeof(IndexEntry));
      UnlockBucket(b);
      return true;
    }
    UnlockBucket(b);
    if (b1 == b2) break;
  }
  return false;
}

bool IndexTable::Repair(uint64_t key, const core::GlobalAddr& addr) {
  IndexBucket* b1 = Bucket(BucketOf(key, buckets_));
  IndexBucket* b2 = Bucket(AltBucketOf(key, buckets_));
  for (IndexBucket* b : {b1, b2}) {
    if (!LockBucket(b)) return false;
    const int slot = FindSlot(b, key);
    if (slot >= 0) {
      IndexEntry next = b->entries[slot];
      next.addr = addr;
      next.fence_epoch = static_cast<uint16_t>(Epoch());
      next.hint_version++;
      StoreEntry(&b->entries[slot], next);
      UnlockBucket(b);
      return true;
    }
    UnlockBucket(b);
    if (b1 == b2) break;
  }
  return false;
}

size_t IndexTable::RepairScan(uint64_t* cursor, size_t bucket_budget,
                              const std::function<bool(IndexEntry*)>& fn) {
  size_t repaired = 0;
  const uint16_t epoch = static_cast<uint16_t>(Epoch());
  while (*cursor < buckets_ && bucket_budget > 0) {
    IndexBucket* b = Bucket(*cursor);
    if (!LockBucket(b)) break;  // leave the cursor: the next slice retries
    for (IndexEntry& e : b->entries) {
      if (!e.Live()) continue;
      IndexEntry next = e;
      if (fn(&next)) {
        next.fence_epoch = epoch;
        next.hint_version++;
        StoreEntry(&e, next);
        ++repaired;
      }
    }
    UnlockBucket(b);
    ++*cursor;
    --bucket_budget;
  }
  return repaired;
}

uint64_t IndexTable::LiveEntries() const {
  uint64_t live = 0;
  for (uint64_t i = 0; i < buckets_; ++i) {
    IndexBucket* b = Bucket(i);
    if (!LockBucket(b)) continue;
    for (const IndexEntry& e : b->entries) live += e.Live() ? 1 : 0;
    UnlockBucket(b);
  }
  return live;
}

}  // namespace corm::index
