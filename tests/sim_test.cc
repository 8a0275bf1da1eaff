// Unit tests for src/sim: physical frames, address space, memfd pool,
// latency model.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "sim/address_space.h"
#include "sim/frame_epoch.h"
#include "sim/latency_model.h"
#include "sim/mem_file.h"
#include "sim/physical_memory.h"

namespace corm::sim {
namespace {

TEST(PhysicalMemoryTest, AllocRefUnref) {
  PhysicalMemory phys;
  auto f = phys.AllocFrame();
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(phys.RefCount(*f), 1u);
  EXPECT_EQ(phys.live_frames(), 1u);
  phys.Ref(*f);
  EXPECT_EQ(phys.RefCount(*f), 2u);
  phys.Unref(*f);
  phys.Unref(*f);
  EXPECT_EQ(phys.live_frames(), 0u);
}

TEST(PhysicalMemoryTest, FramesRecycledAndZeroed) {
  PhysicalMemory phys;
  auto f1 = phys.AllocFrame();
  ASSERT_TRUE(f1.ok());
  phys.FrameData(*f1)[0] = 0xAB;
  phys.Unref(*f1);
  auto f2 = phys.AllocFrame();
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(*f1, *f2);  // recycled
  EXPECT_EQ(phys.FrameData(*f2)[0], 0);  // zeroed
}

TEST(PhysicalMemoryTest, CapacityCap) {
  PhysicalMemory phys(/*max_frames=*/2);
  auto a = phys.AllocFrame();
  auto b = phys.AllocFrame();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto c = phys.AllocFrame();
  EXPECT_TRUE(c.status().IsOutOfMemory());
  phys.Unref(*a);
  EXPECT_TRUE(phys.AllocFrame().ok());  // freed capacity reusable
}

TEST(PhysicalMemoryTest, PeakTracking) {
  PhysicalMemory phys;
  auto a = phys.AllocFrame();
  auto b = phys.AllocFrame();
  phys.Unref(*a);
  EXPECT_EQ(phys.peak_frames(), 2u);
  EXPECT_EQ(phys.live_frames(), 1u);
  phys.Unref(*b);
}

// --- AddressSpace -----------------------------------------------------------

class AddressSpaceTest : public ::testing::Test {
 protected:
  PhysicalMemory phys_;
  AddressSpace space_{&phys_};
};

TEST_F(AddressSpaceTest, ReserveIsPageAlignedAndDisjoint) {
  VAddr a = space_.ReserveRange(4);
  VAddr b = space_.ReserveRange(2);
  EXPECT_EQ(PageOffset(a), 0u);
  EXPECT_EQ(PageOffset(b), 0u);
  EXPECT_GE(b, a + 4 * kVPageSize);
  EXPECT_EQ(space_.reserved_pages(), 6u);
}

TEST_F(AddressSpaceTest, ReleasedRangeIsReused) {
  VAddr a = space_.ReserveRange(4);
  space_.ReleaseRange(a, 4);
  VAddr b = space_.ReserveRange(4);
  EXPECT_EQ(a, b);  // virtual address reuse (paper §3.3)
}

TEST_F(AddressSpaceTest, MapTranslateReadWrite) {
  VAddr base = space_.ReserveRange(2);
  ASSERT_TRUE(space_.MapFresh(base, 2).ok());
  const char msg[] = "corm";
  ASSERT_TRUE(space_.WriteVirtual(base + 100, msg, sizeof(msg)).ok());
  char out[sizeof(msg)];
  ASSERT_TRUE(space_.ReadVirtual(base + 100, out, sizeof(msg)).ok());
  EXPECT_STREQ(out, "corm");
  EXPECT_EQ(space_.mapped_pages(), 2u);
}

TEST_F(AddressSpaceTest, CrossPageReadWrite) {
  VAddr base = space_.ReserveRange(2);
  ASSERT_TRUE(space_.MapFresh(base, 2).ok());
  std::vector<uint8_t> data(kVPageSize, 0x5C);
  // Straddle the page boundary.
  ASSERT_TRUE(
      space_.WriteVirtual(base + kVPageSize / 2, data.data(), data.size())
          .ok());
  std::vector<uint8_t> out(kVPageSize);
  ASSERT_TRUE(
      space_.ReadVirtual(base + kVPageSize / 2, out.data(), out.size()).ok());
  EXPECT_EQ(out, data);
}

TEST_F(AddressSpaceTest, RemapAliasesPhysicalPages) {
  VAddr a = space_.ReserveRange(1);
  VAddr b = space_.ReserveRange(1);
  ASSERT_TRUE(space_.MapFresh(a, 1).ok());
  ASSERT_TRUE(space_.MapFresh(b, 1).ok());
  const uint32_t marker = 0xfeedface;
  ASSERT_TRUE(space_.WriteVirtual(b, &marker, sizeof(marker)).ok());

  // The compaction remap: a's page now points at b's frame.
  ASSERT_TRUE(space_.Remap(a, b, 1).ok());
  uint32_t out = 0;
  ASSERT_TRUE(space_.ReadVirtual(a, &out, sizeof(out)).ok());
  EXPECT_EQ(out, marker);
  // Writes through either address are visible through the other.
  const uint32_t marker2 = 0xdeadbeef;
  ASSERT_TRUE(space_.WriteVirtual(a, &marker2, sizeof(marker2)).ok());
  ASSERT_TRUE(space_.ReadVirtual(b, &out, sizeof(out)).ok());
  EXPECT_EQ(out, marker2);
}

TEST_F(AddressSpaceTest, RemapDropsOldFrameReference) {
  VAddr a = space_.ReserveRange(1);
  VAddr b = space_.ReserveRange(1);
  ASSERT_TRUE(space_.MapFresh(a, 1).ok());
  ASSERT_TRUE(space_.MapFresh(b, 1).ok());
  auto frame_a = space_.TranslatePage(a);
  ASSERT_TRUE(frame_a.ok());
  EXPECT_EQ(phys_.live_frames(), 2u);
  ASSERT_TRUE(space_.Remap(a, b, 1).ok());
  // a's old frame lost its only reference and was recycled.
  EXPECT_EQ(phys_.live_frames(), 1u);
}

TEST_F(AddressSpaceTest, UnmapRejectsUnmapped) {
  VAddr a = space_.ReserveRange(1);
  EXPECT_FALSE(space_.Unmap(a, 1).ok());
}

TEST_F(AddressSpaceTest, TranslateUnmappedFails) {
  FrameEpoch::Guard epoch;
  EXPECT_EQ(space_.TranslatePtr(0x1234), nullptr);
  EXPECT_FALSE(space_.TranslatePage(0x1234).ok());
  char c;
  EXPECT_TRUE(space_.ReadVirtual(0x1234, &c, 1).IsNotFound());
}

namespace {
class RecordingNotifier : public MmuNotifier {
 public:
  void OnMappingChange(VAddr page) override { pages.push_back(page); }
  std::vector<VAddr> pages;
};
}  // namespace

TEST_F(AddressSpaceTest, NotifierFiresOnRemapAndUnmap) {
  RecordingNotifier notifier;
  space_.AddNotifier(&notifier);
  VAddr a = space_.ReserveRange(2);
  VAddr b = space_.ReserveRange(2);
  ASSERT_TRUE(space_.MapFresh(a, 2).ok());
  ASSERT_TRUE(space_.MapFresh(b, 2).ok());
  ASSERT_TRUE(space_.Remap(a, b, 2).ok());
  ASSERT_EQ(notifier.pages.size(), 2u);
  EXPECT_EQ(notifier.pages[0], a);
  EXPECT_EQ(notifier.pages[1], a + kVPageSize);
  notifier.pages.clear();
  ASSERT_TRUE(space_.Unmap(b, 2).ok());
  EXPECT_EQ(notifier.pages.size(), 2u);
  space_.RemoveNotifier(&notifier);
  ASSERT_TRUE(space_.Unmap(a, 2).ok());
  EXPECT_TRUE(notifier.pages.size() == 2u);  // no further callbacks
}

// --- MemFileManager ----------------------------------------------------------

TEST(MemFileTest, AllocatesWithinSixteenMiBFiles) {
  PhysicalMemory phys;
  MemFileManager files(&phys);
  auto a = files.AllocBlock(1);
  auto b = files.AllocBlock(1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(files.open_files(), 1u);  // both fit in one 16 MiB file
  EXPECT_EQ(a->id.fd, b->id.fd);
  EXPECT_NE(a->id.page_offset, b->id.page_offset);
}

TEST(MemFileTest, OpensNewFileWhenFull) {
  PhysicalMemory phys;
  MemFileManager files(&phys);
  // Fill one file completely (4096 pages), then allocate once more.
  auto big = files.AllocBlock(MemFileManager::kFilePages);
  ASSERT_TRUE(big.ok());
  auto extra = files.AllocBlock(1);
  ASSERT_TRUE(extra.ok());
  EXPECT_EQ(files.open_files(), 2u);
  EXPECT_NE(big->id.fd, extra->id.fd);
}

TEST(MemFileTest, FreeCoalescesExtents) {
  PhysicalMemory phys;
  MemFileManager files(&phys);
  auto a = files.AllocBlock(8);
  auto b = files.AllocBlock(8);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  files.FreeBlock(*a);
  files.FreeBlock(*b);
  // After coalescing, a full-file allocation fits again in file 0.
  auto big = files.AllocBlock(MemFileManager::kFilePages);
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big->id.fd, 0);
  EXPECT_EQ(files.open_files(), 1u);
}

TEST(MemFileTest, FramesPinnedByMappingsSurviveFree) {
  PhysicalMemory phys;
  AddressSpace space(&phys);
  MemFileManager files(&phys);
  auto block = files.AllocBlock(1);
  ASSERT_TRUE(block.ok());
  VAddr base = space.ReserveRange(1);
  ASSERT_TRUE(space.MapFrames(base, block->frames).ok());
  files.FreeBlock(*block);  // file drops its reference...
  EXPECT_EQ(phys.live_frames(), 1u);  // ...but the mapping still pins it
  ASSERT_TRUE(space.Unmap(base, 1).ok());
  EXPECT_EQ(phys.live_frames(), 0u);
}

// --- LatencyModel ------------------------------------------------------------

TEST(LatencyModelTest, PaperConstants) {
  LatencyModel cx5{RnicModel::kConnectX5, CpuModel::kIntelXeon};
  LatencyModel cx3{RnicModel::kConnectX3, CpuModel::kIntelXeon};
  // Fig. 8: mmap ~2 us, rereg 8.5-9.6 us (CX-5), ODP miss 62-65 us,
  // advise 4.5 us.
  EXPECT_NEAR(cx5.MmapNs(), 2100, 300);
  EXPECT_GE(cx5.ReregMrNs(), 8500u);
  EXPECT_LE(cx5.ReregMrNs(), 9600u);
  EXPECT_GE(cx5.OdpMissNs(), 62000u);
  EXPECT_LE(cx5.OdpMissNs(), 65000u);
  EXPECT_NEAR(cx5.AdviseMrNs(), 4550, 100);
  // Fig. 15: rereg on ConnectX-3 ~70 us.
  EXPECT_NEAR(cx3.ReregMrNs(), 70000, 5000);
  // §4.1: raw RDMA read RTT as low as 1.7 us; RPC baseline ~2.6 us; TCP 17.
  EXPECT_EQ(cx5.RdmaReadNs(0), 1700u);
  EXPECT_LT(cx5.RdmaReadNs(8), cx5.RpcNs(8));
  EXPECT_GT(cx5.TcpNs(8), 10 * cx5.RdmaReadNs(8) / 2);
}

TEST(LatencyModelTest, RemapStrategyOrdering) {
  LatencyModel m{RnicModel::kConnectX5, CpuModel::kIntelXeon};
  // Per-remap proactive cost: ODP < ODP+prefetch < rereg (the ODP fault
  // cost is deferred to the first reader instead).
  EXPECT_LT(m.RemapBlockNs(RemapStrategy::kOdp, 1),
            m.RemapBlockNs(RemapStrategy::kOdpPrefetch, 1));
  EXPECT_LT(m.RemapBlockNs(RemapStrategy::kOdpPrefetch, 1),
            m.RemapBlockNs(RemapStrategy::kReregMr, 1));
}

TEST(LatencyModelTest, CollectionScalesWithThreads) {
  LatencyModel intel{RnicModel::kConnectX5, CpuModel::kIntelXeon};
  LatencyModel amd{RnicModel::kConnectX5, CpuModel::kAmdEpyc};
  // Fig. 15 (left): ~10 us @2 threads, ~31 us @16 on Intel; AMD ~5x faster
  // at low thread counts.
  EXPECT_NEAR(intel.CollectionNs(2), 10000, 2000);
  EXPECT_NEAR(intel.CollectionNs(16), 31000, 4000);
  EXPECT_LT(amd.CollectionNs(2), intel.CollectionNs(2) / 2);
}

TEST(LatencyModelTest, PaceHonorsZeroScale) {
  // Test main sets scale 0: Pace must return immediately even for an hour.
  Pace(3'600'000'000'000ULL);
  SUCCEED();
}

// --- Frame epochs (lock-free translation, deferred frame reclamation) --------

// Spins until `flag` reaches `value` (test-local hand-off between threads).
void AwaitStage(const std::atomic<int>& flag, int value) {
  while (flag.load(std::memory_order_acquire) < value) {
    std::this_thread::yield();
  }
}

// A guarded translator holds a page's pointer while another thread drops
// the last reference to its frame: the bytes must stay readable, and the
// slab stay retired, until the translator's guard closes. Before frames
// were reclaimed by epoch, the drop freed the slab at once and the read
// below was a heap-use-after-free.
void CheckPointerOutlivesLastRef(bool by_remap) {
  PhysicalMemory phys;
  AddressSpace space(&phys);
  const VAddr a = space.ReserveRange(1);
  const VAddr b = space.ReserveRange(1);
  ASSERT_TRUE(space.MapFresh(a, 1).ok());
  ASSERT_TRUE(space.MapFresh(b, 1).ok());
  const uint64_t marker = 0x1122334455667788ULL;
  ASSERT_TRUE(space.WriteVirtual(a, &marker, sizeof(marker)).ok());
  const uint64_t retired_before = phys.retired_slabs();

  std::atomic<int> stage{0};
  uint64_t seen = 0;
  std::thread reader([&] {
    FrameEpoch::Guard guard;
    const uint8_t* p = space.TranslatePtr(a);
    stage.store(1, std::memory_order_release);
    AwaitStage(stage, 2);  // a's frame has lost its last reference
    std::memcpy(&seen, p, sizeof(seen));
    stage.store(3, std::memory_order_release);
    AwaitStage(stage, 4);
  });
  AwaitStage(stage, 1);
  if (by_remap) {
    ASSERT_TRUE(space.Remap(a, b, 1).ok());  // a now aliases b's frame
    EXPECT_EQ(phys.live_frames(), 1u);
  } else {
    ASSERT_TRUE(space.Unmap(a, 1).ok());
    EXPECT_EQ(phys.live_frames(), 1u);  // only b's frame is accounted
  }
  EXPECT_EQ(phys.retired_slabs(), retired_before + 1);
  phys.ReclaimRetired();  // the reader's guard holds the slab back
  EXPECT_GE(phys.retired_slabs(), 1u);
  stage.store(2, std::memory_order_release);
  AwaitStage(stage, 3);
  EXPECT_EQ(seen, marker);
  phys.ReclaimRetired();
  EXPECT_GE(phys.retired_slabs(), 1u);  // guard still open
  stage.store(4, std::memory_order_release);
  reader.join();
  EXPECT_GE(phys.ReclaimRetired(), 1u);
  EXPECT_EQ(phys.retired_slabs(), 0u);
  EXPECT_GE(phys.reclaimed_slabs(), 1u);
}

TEST(FrameEpochTest, TranslatedPointerOutlivesUnmapUntilGuardExits) {
  CheckPointerOutlivesLastRef(/*by_remap=*/false);
}

TEST(FrameEpochTest, TranslatedPointerOutlivesRemapUntilGuardExits) {
  CheckPointerOutlivesLastRef(/*by_remap=*/true);
}

TEST(FrameEpochTest, GuardsNest) {
  EXPECT_FALSE(FrameEpoch::InGuard());
  {
    FrameEpoch::Guard outer;
    const uint64_t oldest = FrameEpoch::OldestActive();
    EXPECT_NE(oldest, UINT64_MAX);
    {
      FrameEpoch::Guard inner;
      EXPECT_TRUE(FrameEpoch::InGuard());
      // Only the outermost guard publishes an epoch.
      EXPECT_EQ(FrameEpoch::OldestActive(), oldest);
    }
    EXPECT_TRUE(FrameEpoch::InGuard());
  }
  EXPECT_FALSE(FrameEpoch::InGuard());
}

TEST(FrameEpochTest, SlotsAreReusedAcrossThreadLifetimes) {
  // Far more threads over time than run at once: each claims a slot on its
  // first guard and hands it back at exit, so slots track the peak number
  // of live threads, not the number ever started.
  { FrameEpoch::Guard g; }  // this thread's slot exists
  const size_t before = FrameEpoch::SlotCount();
  for (int i = 0; i < 64; ++i) {
    std::thread t([] { FrameEpoch::Guard g; });
    t.join();
  }
  EXPECT_LE(FrameEpoch::SlotCount(), before + 1);
  EXPECT_EQ(FrameEpoch::OldestActive(), UINT64_MAX);
}

// Translate-vs-remap stress: readers keep translating page A while a
// writer repeatedly points A at a freshly written frame, dropping the old
// frame's last reference each time. Every read must see a complete image
// of *some* written frame, and all retired slabs drain once readers stop.
TEST(FrameEpochTest, TranslateRacesRemapStress) {
  PhysicalMemory phys;
  AddressSpace space(&phys);
  const VAddr a = space.ReserveRange(1);
  ASSERT_TRUE(space.MapFresh(a, 1).ok());
  auto image = [](uint64_t k) { return (k << 32) | (k ^ 0x5A5A5A5AULL); };
  const uint64_t first = image(0);
  ASSERT_TRUE(space.WriteVirtual(a, &first, sizeof(first)).ok());

  constexpr int kRemaps = 4000;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> bad{0};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        FrameEpoch::Guard guard;
        const uint8_t* p = space.TranslatePtr(a);
        if (p == nullptr) {
          bad.fetch_add(1);
          continue;
        }
        uint64_t v = 0;
        std::memcpy(&v, p, sizeof(v));
        if (v != image(v >> 32)) bad.fetch_add(1);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Start remapping only once both readers are translating.
  while (reads.load(std::memory_order_relaxed) < 2) std::this_thread::yield();
  for (uint64_t k = 1; k <= kRemaps; ++k) {
    const VAddr f = space.ReserveRange(1);
    ASSERT_TRUE(space.MapFresh(f, 1).ok());
    const uint64_t v = image(k);
    ASSERT_TRUE(space.WriteVirtual(f, &v, sizeof(v)).ok());
    ASSERT_TRUE(space.Remap(a, f, 1).ok());  // A's old frame: last ref gone
    ASSERT_TRUE(space.Unmap(f, 1).ok());     // A keeps the new frame alive
    space.ReleaseRange(f, 1);
    if (k % 64 == 0) phys.ReclaimRetired();
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(phys.live_frames(), 1u);  // only A's current frame
  phys.ReclaimRetired();
  EXPECT_EQ(phys.retired_slabs(), 0u);
  EXPECT_EQ(phys.reclaimed_slabs(), static_cast<uint64_t>(kRemaps));
  uint64_t last = 0;
  ASSERT_TRUE(space.ReadVirtual(a, &last, sizeof(last)).ok());
  EXPECT_EQ(last, image(kRemaps));
}

}  // namespace
}  // namespace corm::sim
