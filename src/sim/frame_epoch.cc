#include "sim/frame_epoch.h"

#include <memory>
#include <new>

#include "common/logging.h"

namespace corm::sim {

namespace {

// One thread's published epoch: 0 while the thread is outside every guard.
// Cache-line sized so guards on different threads never share a line.
struct alignas(64) EpochSlot {
  std::atomic<uint64_t> epoch{0};
  bool claimed = false;  // guarded by SlotRegistry::mu
};

// Every slot ever claimed. Slots are only recycled, never freed, so a slot
// pointer stays valid for the life of the process.
struct SlotRegistry {
  Mutex mu;
  std::vector<std::unique_ptr<EpochSlot>> slots GUARDED_BY(mu);
};

// Never destroyed: a thread that exits during static destruction still
// hands its slot back.
SlotRegistry& Registry() {
  alignas(SlotRegistry) static unsigned char storage[sizeof(SlotRegistry)];
  static SlotRegistry* registry = new (storage) SlotRegistry();
  return *registry;
}

// Starts at 1 so that 0 can mean "not inside a guard".
std::atomic<uint64_t> g_epoch{1};

thread_local EpochSlot* t_slot = nullptr;
thread_local uint32_t t_depth = 0;

// Hands the thread's slot back at thread exit.
struct SlotRelease {
  ~SlotRelease() {
    if (t_slot == nullptr) return;
    SlotRegistry& reg = Registry();
    LockGuard<Mutex> lock(reg.mu);
    t_slot->claimed = false;
    t_slot = nullptr;
  }
};

EpochSlot* ClaimSlot() {
  thread_local SlotRelease release;  // registers the thread-exit hand-back
  (void)release;
  SlotRegistry& reg = Registry();
  LockGuard<Mutex> lock(reg.mu);
  for (auto& slot : reg.slots) {
    if (!slot->claimed) {
      slot->claimed = true;
      return slot.get();
    }
  }
  reg.slots.push_back(std::make_unique<EpochSlot>());
  reg.slots.back()->claimed = true;
  return reg.slots.back().get();
}

}  // namespace

void FrameEpoch::Enter() {
  if (t_depth++ != 0) return;
  EpochSlot* slot = t_slot;
  if (slot == nullptr) slot = t_slot = ClaimSlot();
  // Release: a reclaimer that reads this value also sees everything the
  // thread did inside its previous guard. The fence orders the publication
  // before every translation inside the guard (Dekker with the fence in
  // OldestActive): either the reclaimer sees this epoch, or the guard's
  // loads see every unlink that preceded the reclaimer's scan.
  slot->epoch.store(g_epoch.load(std::memory_order_relaxed),
                    std::memory_order_release);
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

void FrameEpoch::Exit() {
  CORM_CHECK_GT(t_depth, 0u) << "FrameEpoch guard exit without entry";
  if (--t_depth != 0) return;
  t_slot->epoch.store(0, std::memory_order_release);
}

bool FrameEpoch::InGuard() { return t_depth > 0; }

uint64_t FrameEpoch::Advance() {
  return g_epoch.fetch_add(1, std::memory_order_seq_cst);
}

uint64_t FrameEpoch::OldestActive() {
  std::atomic_thread_fence(std::memory_order_seq_cst);
  uint64_t oldest = UINT64_MAX;
  SlotRegistry& reg = Registry();
  LockGuard<Mutex> lock(reg.mu);
  for (const auto& slot : reg.slots) {
    const uint64_t e = slot->epoch.load(std::memory_order_acquire);
    if (e != 0 && e < oldest) oldest = e;
  }
  return oldest;
}

size_t FrameEpoch::SlotCount() {
  SlotRegistry& reg = Registry();
  LockGuard<Mutex> lock(reg.mu);
  return reg.slots.size();
}

}  // namespace corm::sim
