// Property tests connecting the implemented system to the paper's models:
// the §3.4 probability formula against the *actual* allocator+compactor,
// end-to-end round trips across every size class, and refcount invariants
// of the paging substrate under random remap churn.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "alloc/size_classes.h"
#include "baseline/compaction_sim.h"
#include "common/random.h"
#include "core/client.h"
#include "core/corm_node.h"
#include "core/object_layout.h"
#include "core/probability.h"
#include "sim/address_space.h"
#include "sim/mem_file.h"
#include "sim/physical_memory.h"

namespace corm {
namespace {

// --- §3.4 formula vs the real allocator/compactor --------------------------
// Fill pairs of blocks to a target occupancy through the actual simulator
// (random IDs, random offsets) and compare the measured merge success rate
// with CompactionProbability.
class FormulaVsSystem
    : public ::testing::TestWithParam<std::tuple<int, uint32_t, double>> {};

TEST_P(FormulaVsSystem, MergeRateMatchesFormula) {
  const auto [id_bits, object_size, occupancy] = GetParam();
  const size_t block_bytes = 4 * kKiB;
  const uint64_t s = block_bytes / object_size;
  const auto b = static_cast<uint64_t>(s * occupancy);
  if (b == 0 || 2 * b > s) GTEST_SKIP();
  auto classes = alloc::SizeClassTable::PowersOfTwo(8, 4096);

  const int kTrials = 300;
  int merged = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    baseline::SimConfig config;
    config.algorithm = baseline::Algorithm::kCorm;
    config.id_bits = id_bits;
    config.block_bytes = block_bytes;
    config.num_threads = 2;
    config.seed = 7000 + trial;
    baseline::AllocatorSim sim(config, &classes);
    for (uint64_t i = 0; i < b; ++i) {
      sim.AllocOnThread(object_size, 0);
      sim.AllocOnThread(object_size, 1);
    }
    ASSERT_EQ(sim.num_blocks(), 2u);
    merged += sim.Compact().blocks_after == 1;
  }
  const double expected =
      core::CormCompactionProbability(id_bits, s, b, b);
  const double measured = static_cast<double>(merged) / kTrials;
  // 300 trials: allow ~4 sigma of binomial noise plus model slack.
  const double sigma =
      std::sqrt(std::max(expected * (1 - expected), 0.02) / kTrials);
  EXPECT_NEAR(measured, expected, 4 * sigma + 0.02)
      << "bits=" << id_bits << " size=" << object_size << " occ=" << occupancy;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FormulaVsSystem,
    ::testing::Combine(::testing::Values(8, 12, 16),
                       ::testing::Values<uint32_t>(64, 128, 256),
                       ::testing::Values(0.125, 0.25, 0.375)));

// --- End-to-end round trip at every size class ------------------------------

class EveryClassRoundTrip : public ::testing::TestWithParam<uint32_t> {};

TEST_P(EveryClassRoundTrip, MaxPayloadSurvivesAllPaths) {
  const uint32_t slot_size = GetParam();
  const uint32_t payload = core::PayloadCapacity(slot_size);
  core::CormConfig config;
  config.num_workers = 2;
  config.block_pages = (slot_size + 4095) / 4096;  // block must fit the slot
  core::CormNode node(config);
  auto ctx = core::Context::Create(&node);

  auto addr = ctx->Alloc(payload);
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(node.classes().ClassSize(addr->class_idx), slot_size);

  std::vector<uint8_t> in(payload), out(payload);
  core::PatternFill(99, in.data(), payload);
  ASSERT_TRUE(ctx->Write(&*addr, in.data(), payload).ok());
  ASSERT_TRUE(ctx->Read(&*addr, out.data(), payload).ok());
  EXPECT_EQ(in, out);
  std::fill(out.begin(), out.end(), 0);
  ASSERT_TRUE(ctx->DirectRead(*addr, out.data(), payload).ok());
  EXPECT_EQ(in, out);
  std::fill(out.begin(), out.end(), 0);
  core::GlobalAddr scan = *addr;
  ASSERT_TRUE(ctx->ScanRead(&scan, out.data(), payload).ok());
  EXPECT_EQ(in, out);
  ASSERT_TRUE(ctx->Free(&*addr).ok());
}

INSTANTIATE_TEST_SUITE_P(AllClasses, EveryClassRoundTrip,
                         ::testing::Values(16, 32, 64, 128, 192, 256, 384,
                                           512, 768, 1024, 1536, 2048, 3072,
                                           4096, 6144, 8192, 12288, 16384));

// --- Paging substrate invariants under random churn -------------------------

TEST(PagingPropertyTest, RefcountsBalanceUnderRandomRemaps) {
  sim::PhysicalMemory phys;
  {
    sim::AddressSpace space(&phys);
    sim::MemFileManager files(&phys);
    Rng rng(321);

    struct Mapping {
      sim::VAddr base;
      sim::PhysBlock phys_block;
      bool hole_punched = false;
    };
    std::vector<Mapping> mappings;
    for (int step = 0; step < 2000; ++step) {
      const double dice = rng.NextDouble();
      if (dice < 0.4 || mappings.size() < 2) {
        const size_t npages = 1 + rng.Uniform(4);
        auto block = files.AllocBlock(npages);
        ASSERT_TRUE(block.ok());
        sim::VAddr base = space.ReserveRange(npages);
        ASSERT_TRUE(space.MapFrames(base, block->frames).ok());
        mappings.push_back({base, *block});
      } else if (dice < 0.7) {
        // Remap a random mapping onto another of the same size.
        const size_t a = rng.Uniform(mappings.size());
        const size_t b = rng.Uniform(mappings.size());
        if (a == b ||
            mappings[a].phys_block.frames.size() !=
                mappings[b].phys_block.frames.size()) {
          continue;
        }
        ASSERT_TRUE(space
                        .Remap(mappings[a].base, mappings[b].base,
                               mappings[a].phys_block.frames.size())
                        .ok());
        if (!mappings[a].hole_punched) {
          files.FreeBlock(mappings[a].phys_block);
          mappings[a].hole_punched = true;
        }
      } else {
        const size_t victim = rng.Uniform(mappings.size());
        Mapping m = mappings[victim];
        ASSERT_TRUE(
            space.Unmap(m.base, m.phys_block.frames.size()).ok());
        space.ReleaseRange(m.base, m.phys_block.frames.size());
        if (!m.hole_punched) files.FreeBlock(m.phys_block);
        mappings[victim] = mappings.back();
        mappings.pop_back();
      }
      // Invariant: every live frame is reachable (ref > 0 by definition);
      // mapped pages all translate.
      sim::FrameEpoch::Guard epoch;
      for (const auto& m : mappings) {
        ASSERT_NE(space.TranslatePtr(m.base), nullptr);
      }
    }
    // Drain.
    for (const auto& m : mappings) {
      ASSERT_TRUE(space.Unmap(m.base, m.phys_block.frames.size()).ok());
      if (!m.hole_punched) files.FreeBlock(m.phys_block);
    }
  }
  EXPECT_EQ(phys.live_frames(), 0u) << "leaked frame references";
}

// --- Compaction converges toward the ideal when IDs are wide ---------------

TEST(ConvergenceTest, WideIdsReachNearIdealOccupancy) {
  auto classes = alloc::SizeClassTable::PowersOfTwo(8, 16 * 1024);
  baseline::SimConfig config;
  config.algorithm = baseline::Algorithm::kCorm;
  config.id_bits = 16;
  config.block_bytes = kMiB;
  config.num_threads = 4;
  baseline::AllocatorSim sim(config, &classes);
  Rng rng(11);
  std::vector<baseline::SimHandle> handles;
  for (int i = 0; i < 50000; ++i) handles.push_back(sim.Alloc(4096));
  for (auto h : handles) {
    if (rng.Chance(0.8)) sim.Free(h);
  }
  sim.Compact();
  // 4 KiB objects, 16-bit IDs, 256 slots/block: conflicts are negligible;
  // the result must be within a few blocks (per-thread rounding) + header
  // overhead of the ideal compactor.
  EXPECT_LE(sim.ActiveBytes(),
            sim.IdealBytes() + 5 * kMiB + 50000 * 6);
}

}  // namespace
}  // namespace corm
