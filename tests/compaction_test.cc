// Compaction correctness: the two-stage protocol, RDMA-safe remapping,
// pointer correction, ghost release and virtual address reuse (§3.1-§3.3).

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/client.h"
#include "core/corm_node.h"
#include "core/object_layout.h"

namespace corm::core {
namespace {

CormConfig BaseConfig() {
  CormConfig config;
  config.num_workers = 2;
  config.block_pages = 1;
  config.object_id_bits = 16;
  return config;
}

// Allocates `count` objects of `payload` bytes via RPC, writes patterns.
std::vector<GlobalAddr> Load(Context* ctx, size_t count, uint32_t payload) {
  std::vector<GlobalAddr> addrs;
  std::vector<uint8_t> buf(payload);
  for (size_t i = 0; i < count; ++i) {
    auto addr = ctx->Alloc(payload);
    EXPECT_TRUE(addr.ok());
    PatternFill(i, buf.data(), payload);
    EXPECT_TRUE(ctx->Write(&*addr, buf.data(), payload).ok());
    addrs.push_back(*addr);
  }
  return addrs;
}

// Frees a fraction of the objects, spreading the holes uniformly.
std::vector<GlobalAddr> FreeEveryOther(Context* ctx,
                                       std::vector<GlobalAddr>* addrs,
                                       std::vector<size_t>* live_idx) {
  std::vector<GlobalAddr> survivors;
  for (size_t i = 0; i < addrs->size(); ++i) {
    if (i % 2 == 0) {
      GlobalAddr a = (*addrs)[i];
      EXPECT_TRUE(ctx->Free(&a).ok());
    } else {
      survivors.push_back((*addrs)[i]);
      if (live_idx) live_idx->push_back(i);
    }
  }
  return survivors;
}

class CompactionTest : public ::testing::TestWithParam<RpcCorrectionStrategy> {
 protected:
  CormConfig Config() {
    CormConfig config = BaseConfig();
    config.rpc_correction = GetParam();
    return config;
  }
};

TEST_P(CompactionTest, CompactionFreesBlocksAndPreservesData) {
  CormNode node(Config());
  auto ctx = Context::Create(&node);
  constexpr uint32_t kPayload = 56;  // class 64: 64 objects per 4 KiB block
  auto addrs = Load(ctx.get(), 512, kPayload);
  std::vector<size_t> live_idx;
  auto survivors = FreeEveryOther(ctx.get(), &addrs, &live_idx);

  const uint64_t active_before = node.ActiveMemoryBytes();
  auto class_idx = node.ClassForPayload(kPayload);
  ASSERT_TRUE(class_idx.ok());
  auto report = node.Compact(*class_idx);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->blocks_freed, 0u);
  EXPECT_GT(report->objects_moved, 0u);
  EXPECT_LT(node.ActiveMemoryBytes(), active_before);

  // Every survivor remains readable with intact data through the RPC path
  // (with server-side pointer correction).
  std::vector<uint8_t> buf(kPayload);
  for (size_t i = 0; i < survivors.size(); ++i) {
    GlobalAddr addr = survivors[i];
    ASSERT_TRUE(ctx->Read(&addr, buf.data(), kPayload).ok()) << i;
    EXPECT_TRUE(PatternCheck(live_idx[i], buf.data(), kPayload)) << i;
  }
}

TEST_P(CompactionTest, OneSidedReadsSurviveCompaction) {
  CormNode node(Config());
  auto ctx = Context::Create(&node);
  constexpr uint32_t kPayload = 56;
  auto addrs = Load(ctx.get(), 512, kPayload);
  std::vector<size_t> live_idx;
  auto survivors = FreeEveryOther(ctx.get(), &addrs, &live_idx);
  auto report = node.Compact(*node.ClassForPayload(kPayload));
  ASSERT_TRUE(report.ok());
  ASSERT_GT(report->blocks_freed, 0u);

  // DirectRead with ScanRead fallback: the old vaddr still resolves via
  // the preserved r_key (remap + MTT repair), and moved objects are found
  // by scanning — no QP ever breaks with the ODP strategy.
  std::vector<uint8_t> buf(kPayload);
  for (size_t i = 0; i < survivors.size(); ++i) {
    GlobalAddr addr = survivors[i];
    ASSERT_TRUE(ctx->ReadWithRecovery(&addr, buf.data(), kPayload,
                                      Context::MovedFallback::kScanRead)
                    .ok())
        << i;
    EXPECT_TRUE(PatternCheck(live_idx[i], buf.data(), kPayload)) << i;
  }
  EXPECT_EQ(ctx->queue_pair()->reconnects(), 0u);
}

TEST_P(CompactionTest, WritesWorkOnIndirectPointers) {
  CormNode node(Config());
  auto ctx = Context::Create(&node);
  constexpr uint32_t kPayload = 120;  // class 128
  auto addrs = Load(ctx.get(), 256, kPayload);
  auto survivors = FreeEveryOther(ctx.get(), &addrs, nullptr);
  ASSERT_TRUE(node.Compact(*node.ClassForPayload(kPayload)).ok());

  std::vector<uint8_t> fresh(kPayload);
  std::vector<uint8_t> out(kPayload);
  for (size_t i = 0; i < survivors.size(); ++i) {
    GlobalAddr addr = survivors[i];
    PatternFill(10000 + i, fresh.data(), kPayload);
    ASSERT_TRUE(ctx->Write(&addr, fresh.data(), kPayload).ok()) << i;
    ASSERT_TRUE(ctx->Read(&addr, out.data(), kPayload).ok());
    EXPECT_EQ(out, fresh);
  }
}

TEST_P(CompactionTest, CorrectedPointersBecomeDirect) {
  CormNode node(Config());
  auto ctx = Context::Create(&node);
  constexpr uint32_t kPayload = 56;
  auto addrs = Load(ctx.get(), 512, kPayload);
  auto survivors = FreeEveryOther(ctx.get(), &addrs, nullptr);
  ASSERT_TRUE(node.Compact(*node.ClassForPayload(kPayload)).ok());

  std::vector<uint8_t> buf(kPayload);
  for (GlobalAddr& addr : survivors) {
    ASSERT_TRUE(ctx->Read(&addr, buf.data(), kPayload).ok());
  }
  // After one corrected read, DirectReads succeed without fallback.
  for (GlobalAddr& addr : survivors) {
    EXPECT_TRUE(ctx->DirectRead(addr, buf.data(), kPayload).ok());
  }
}

TEST_P(CompactionTest, FreeThroughOldPointers) {
  CormNode node(Config());
  auto ctx = Context::Create(&node);
  constexpr uint32_t kPayload = 56;
  auto addrs = Load(ctx.get(), 256, kPayload);
  auto survivors = FreeEveryOther(ctx.get(), &addrs, nullptr);
  ASSERT_TRUE(node.Compact(*node.ClassForPayload(kPayload)).ok());

  // Free every survivor through its (possibly stale) old pointer.
  for (GlobalAddr& addr : survivors) {
    ASSERT_TRUE(ctx->Free(&addr).ok());
  }
  // All memory of that class is gone; ghosts were released with the last
  // homed objects.
  auto frag = node.Fragmentation();
  EXPECT_EQ(frag[*node.ClassForPayload(kPayload)].granted_bytes, 0u);
  EXPECT_EQ(node.vaddr_ghosts_for_testing(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, CompactionTest,
    ::testing::Values(RpcCorrectionStrategy::kThreadMessaging,
                      RpcCorrectionStrategy::kBlockScan),
    [](const auto& info) {
      return info.param == RpcCorrectionStrategy::kThreadMessaging
                 ? "ThreadMessaging"
                 : "BlockScan";
    });

// --- Remap strategies (§3.5) ------------------------------------------------

class RemapStrategyTest
    : public ::testing::TestWithParam<sim::RemapStrategy> {};

TEST_P(RemapStrategyTest, CompactionPreservesAccessUnderEveryStrategy) {
  CormConfig config = BaseConfig();
  config.remap_strategy = GetParam();
  CormNode node(config);
  auto ctx = Context::Create(&node);
  constexpr uint32_t kPayload = 56;
  auto addrs = Load(ctx.get(), 512, kPayload);
  std::vector<size_t> live_idx;
  auto survivors = FreeEveryOther(ctx.get(), &addrs, &live_idx);
  auto report = node.Compact(*node.ClassForPayload(kPayload));
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->blocks_freed, 0u);

  std::vector<uint8_t> buf(kPayload);
  for (size_t i = 0; i < survivors.size(); ++i) {
    GlobalAddr addr = survivors[i];
    ASSERT_TRUE(ctx->ReadWithRecovery(&addr, buf.data(), kPayload).ok());
    EXPECT_TRUE(PatternCheck(live_idx[i], buf.data(), kPayload));
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, RemapStrategyTest,
                         ::testing::Values(sim::RemapStrategy::kReregMr,
                                           sim::RemapStrategy::kOdp,
                                           sim::RemapStrategy::kOdpPrefetch),
                         [](const auto& info) {
                           switch (info.param) {
                             case sim::RemapStrategy::kReregMr:
                               return "ReregMr";
                             case sim::RemapStrategy::kOdp:
                               return "Odp";
                             default:
                               return "OdpPrefetch";
                           }
                         });

// --- Pointer release & vaddr reuse (§3.3) ------------------------------------

TEST(PointerReleaseTest, ReleasePtrRehomesAndReleasesGhost) {
  CormConfig config = BaseConfig();
  config.num_workers = 1;
  CormNode node(config);
  auto ctx = Context::Create(&node);
  constexpr uint32_t kPayload = 56;
  auto addrs = Load(ctx.get(), 256, kPayload);
  auto survivors = FreeEveryOther(ctx.get(), &addrs, nullptr);
  const uint64_t vbytes_frag = node.VirtualMemoryBytes();
  ASSERT_TRUE(node.Compact(*node.ClassForPayload(kPayload)).ok());
  // Compaction alone frees physical memory but keeps all virtual ranges.
  EXPECT_EQ(node.VirtualMemoryBytes(), vbytes_frag);
  EXPECT_GT(node.vaddr_ghosts_for_testing(), 0u);

  // Release every old pointer: ghosts drain, virtual space shrinks.
  for (GlobalAddr& addr : survivors) {
    GlobalAddr before = addr;
    ASSERT_TRUE(ctx->ReleasePtr(&addr).ok());
    // The returned pointer is canonical (current block) and direct.
    std::vector<uint8_t> buf(kPayload);
    ASSERT_TRUE(ctx->DirectRead(addr, buf.data(), kPayload).ok());
    (void)before;
  }
  EXPECT_EQ(node.vaddr_ghosts_for_testing(), 0u);
  EXPECT_LT(node.VirtualMemoryBytes(), vbytes_frag);
}

TEST(PointerReleaseTest, OldPointerUseIsFlagged) {
  CormConfig config = BaseConfig();
  config.num_workers = 1;
  CormNode node(config);
  auto ctx = Context::Create(&node);
  constexpr uint32_t kPayload = 56;
  auto addrs = Load(ctx.get(), 256, kPayload);
  auto survivors = FreeEveryOther(ctx.get(), &addrs, nullptr);
  ASSERT_TRUE(node.Compact(*node.ClassForPayload(kPayload)).ok());

  // Objects whose block was merged away: reading through the old pointer
  // notifies the user via the flag (§3.3).
  bool saw_old_flag = false;
  std::vector<uint8_t> buf(kPayload);
  for (GlobalAddr& addr : survivors) {
    ASSERT_TRUE(ctx->Read(&addr, buf.data(), kPayload).ok());
    saw_old_flag |= addr.ReferencesOldBlock();
  }
  EXPECT_TRUE(saw_old_flag);
  EXPECT_GT(node.stats().old_pointer_uses, 0u);
}

// --- Policy (§3.1.3) ----------------------------------------------------------

TEST(CompactionPolicyTest, CompactIfFragmentedTriggersOnThreshold) {
  CormConfig config = BaseConfig();
  config.fragmentation_threshold = 1.5;
  CormNode node(config);
  auto ctx = Context::Create(&node);
  constexpr uint32_t kPayload = 56;
  auto addrs = Load(ctx.get(), 512, kPayload);

  // Fully utilized: nothing to do.
  auto none = node.CompactIfFragmented();
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());

  auto survivors = FreeEveryOther(ctx.get(), &addrs, nullptr);
  auto reports = node.CompactIfFragmented();
  ASSERT_TRUE(reports.ok());
  ASSERT_EQ(reports->size(), 1u);
  EXPECT_GT((*reports)[0].blocks_freed, 0u);
  (void)survivors;
}

// --- Host memory behind freed frames (DESIGN.md §7.6) -------------------------

// Compaction frees source blocks while workers and one-sided readers may
// still hold translated pointers into them, so their frame slabs are
// retired, not freed. A node that goes quiet must free every one of them by
// itself (workers reclaim between polls and before they park): the
// retired-slab gauge drains to 0, so host memory stays bounded by what is
// mapped.
TEST(FrameReclaimTest, QuiescentNodeDrainsRetiredSlabsAfterCompaction) {
  CormNode node(BaseConfig());
  auto ctx = Context::Create(&node);
  constexpr uint32_t kPayload = 56;
  auto addrs = Load(ctx.get(), 512, kPayload);
  std::vector<size_t> live_idx;
  auto survivors = FreeEveryOther(ctx.get(), &addrs, &live_idx);
  const uint64_t reclaimed_before = node.stats().frame_slabs_reclaimed;
  auto report = node.Compact(*node.ClassForPayload(kPayload));
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_GT(report->blocks_freed, 0u);

  // No request arrives from here on; only the node's own workers run.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (node.stats().frame_slabs_retired != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const NodeStats st = node.stats();
  EXPECT_EQ(st.frame_slabs_retired, 0u);
  // Each freed block's slab went through retirement and was freed.
  EXPECT_GE(st.frame_slabs_reclaimed - reclaimed_before,
            static_cast<uint64_t>(report->blocks_freed));

  std::vector<uint8_t> buf(kPayload);
  for (size_t i = 0; i < survivors.size(); ++i) {
    GlobalAddr addr = survivors[i];
    ASSERT_TRUE(ctx->Read(&addr, buf.data(), kPayload).ok()) << i;
    EXPECT_TRUE(PatternCheck(live_idx[i], buf.data(), kPayload)) << i;
  }
}

// --- Repeated compaction / ghost chains --------------------------------------

TEST(ChainedCompactionTest, PointersSurviveMultipleRounds) {
  CormConfig config = BaseConfig();
  config.num_workers = 1;
  CormNode node(config);
  auto ctx = Context::Create(&node);
  constexpr uint32_t kPayload = 56;
  const uint32_t class_idx = *node.ClassForPayload(kPayload);

  auto addrs = Load(ctx.get(), 512, kPayload);
  std::vector<size_t> live_idx(addrs.size());
  for (size_t i = 0; i < addrs.size(); ++i) live_idx[i] = i;

  Rng rng(99);
  std::vector<uint8_t> buf(kPayload);
  for (int round = 0; round < 4; ++round) {
    // Free ~40% of the survivors at random, then compact.
    std::vector<GlobalAddr> next;
    std::vector<size_t> next_idx;
    for (size_t i = 0; i < addrs.size(); ++i) {
      if (rng.Chance(0.4)) {
        ASSERT_TRUE(ctx->Free(&addrs[i]).ok());
      } else {
        next.push_back(addrs[i]);
        next_idx.push_back(live_idx[i]);
      }
    }
    addrs = std::move(next);
    live_idx = std::move(next_idx);
    auto report = node.Compact(class_idx);
    ASSERT_TRUE(report.ok()) << "round " << round;

    // Every survivor readable with intact data, through *original-era*
    // pointers (never corrected between rounds).
    for (size_t i = 0; i < addrs.size(); ++i) {
      GlobalAddr addr = addrs[i];
      ASSERT_TRUE(ctx->ReadWithRecovery(&addr, buf.data(), kPayload).ok())
          << "round " << round << " obj " << i;
      EXPECT_TRUE(PatternCheck(live_idx[i], buf.data(), kPayload));
    }
  }
}

// Randomized property test: interleaved allocs/frees/compactions keep every
// live object intact and every dead pointer invalid.
TEST(CompactionPropertyTest, RandomChurnPreservesAllLiveObjects) {
  CormConfig config = BaseConfig();
  config.num_workers = 2;
  CormNode node(config);
  auto ctx = Context::Create(&node);
  constexpr uint32_t kPayload = 24;  // class 32: many objects per block
  const uint32_t class_idx = *node.ClassForPayload(kPayload);

  struct LiveObj {
    GlobalAddr addr;
    uint64_t pattern;
  };
  std::vector<LiveObj> live;
  Rng rng(7);
  uint64_t next_pattern = 0;
  std::vector<uint8_t> buf(kPayload);

  for (int step = 0; step < 3000; ++step) {
    const double dice = rng.NextDouble();
    if (dice < 0.55 || live.empty()) {
      auto addr = ctx->Alloc(kPayload);
      ASSERT_TRUE(addr.ok());
      PatternFill(next_pattern, buf.data(), kPayload);
      ASSERT_TRUE(ctx->Write(&*addr, buf.data(), kPayload).ok());
      live.push_back({*addr, next_pattern++});
    } else if (dice < 0.95) {
      const size_t victim = rng.Uniform(live.size());
      ASSERT_TRUE(ctx->Free(&live[victim].addr).ok());
      live[victim] = live.back();
      live.pop_back();
    } else {
      ASSERT_TRUE(node.Compact(class_idx).ok());
    }
  }
  ASSERT_TRUE(node.Compact(class_idx).ok());
  for (auto& obj : live) {
    ASSERT_TRUE(ctx->ReadWithRecovery(&obj.addr, buf.data(), kPayload).ok());
    EXPECT_TRUE(PatternCheck(obj.pattern, buf.data(), kPayload));
  }
}

}  // namespace
}  // namespace corm::core
