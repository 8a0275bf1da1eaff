// Two-level radix table with lock-free reads (DESIGN.md §7.6).
//
// The page table (sim/address_space.h) and the RNIC's r_key table
// (rdma/rnic.h) are indexed by a dense integer: a virtual page number and a
// registration key. A root array of leaf pointers covers the whole index
// space, and a leaf is allocated the first time a writer touches its range.
// A lookup is one acquire load of the leaf pointer plus whatever atomic
// loads the caller makes on the entry. Writers are serialized by the
// owner's lock; a published leaf is never freed before the table is.

#ifndef CORM_SIM_RADIX_TABLE_H_
#define CORM_SIM_RADIX_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.h"

namespace corm::sim {

// `Entry` must be default-constructible into its "empty" state and is read
// and written through its own atomics.
template <typename Entry, unsigned kRootBits, unsigned kLeafBits>
class RadixTable {
 public:
  static constexpr uint64_t kLeafSize = 1ULL << kLeafBits;
  static constexpr uint64_t kCapacity = 1ULL << (kRootBits + kLeafBits);

  RadixTable() : root_(std::make_unique<std::atomic<Leaf*>[]>(kRootSize)) {}

  RadixTable(const RadixTable&) = delete;
  RadixTable& operator=(const RadixTable&) = delete;

  // Lock-free: the entry at `idx`, or null when no writer ever created its
  // leaf (or `idx` is out of range).
  const Entry* Find(uint64_t idx) const {
    if (idx >= kCapacity) return nullptr;
    const Leaf* leaf =
        root_[idx >> kLeafBits].load(std::memory_order_acquire);
    return leaf == nullptr ? nullptr : &leaf->entries[idx & (kLeafSize - 1)];
  }
  Entry* Find(uint64_t idx) {
    return const_cast<Entry*>(std::as_const(*this).Find(idx));
  }

  // Writer side (the caller holds the owner's lock): the entry at `idx`,
  // creating its leaf on first use.
  Entry& At(uint64_t idx) {
    CORM_CHECK_LT(idx, kCapacity) << "radix table index out of range";
    std::atomic<Leaf*>& slot = root_[idx >> kLeafBits];
    Leaf* leaf = slot.load(std::memory_order_relaxed);
    if (leaf == nullptr) {
      leaves_.push_back(std::make_unique<Leaf>());
      leaf = leaves_.back().get();
      slot.store(leaf, std::memory_order_release);
    }
    return leaf->entries[idx & (kLeafSize - 1)];
  }

  // Writer side: calls fn(entry) for every entry of every created leaf.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (auto& leaf : leaves_) {
      for (Entry& e : leaf->entries) fn(e);
    }
  }

 private:
  static constexpr uint64_t kRootSize = 1ULL << kRootBits;

  struct Leaf {
    Entry entries[kLeafSize];
  };

  // Value-initialized: every leaf pointer starts null.
  const std::unique_ptr<std::atomic<Leaf*>[]> root_;
  // Owns the leaves the root points at (writer side only).
  std::vector<std::unique_ptr<Leaf>> leaves_;
};

}  // namespace corm::sim

#endif  // CORM_SIM_RADIX_TABLE_H_
