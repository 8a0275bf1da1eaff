// End-to-end tests of the CoRM node through the client Context: the full
// Table 2 API, consistency checks, and bulk loaders.

#include <gtest/gtest.h>

#include <memory>
#include <string_view>
#include <vector>

#include "core/client.h"
#include "core/corm_node.h"
#include "core/object_layout.h"

namespace corm::core {
namespace {

CormConfig SmallConfig() {
  CormConfig config;
  config.num_workers = 4;
  config.block_pages = 1;  // 4 KiB blocks (paper default)
  config.object_id_bits = 16;
  return config;
}

class NodeTest : public ::testing::Test {
 protected:
  NodeTest() : node_(SmallConfig()), ctx_(Context::Create(&node_)) {}

  CormNode node_;
  std::unique_ptr<Context> ctx_;
};

TEST_F(NodeTest, AllocWriteReadFree) {
  auto addr = ctx_->Alloc(100);
  ASSERT_TRUE(addr.ok());
  EXPECT_FALSE(addr->IsNull());
  EXPECT_NE(addr->r_key, 0u);

  std::vector<uint8_t> data(100);
  PatternFill(1, data.data(), 100);
  ASSERT_TRUE(ctx_->Write(&*addr, data.data(), 100).ok());

  std::vector<uint8_t> out(100, 0);
  ASSERT_TRUE(ctx_->Read(&*addr, out.data(), 100).ok());
  EXPECT_EQ(out, data);

  ASSERT_TRUE(ctx_->Free(&*addr).ok());
  EXPECT_TRUE(addr->IsNull());
}

TEST_F(NodeTest, DirectReadMatchesRpcRead) {
  auto addr = ctx_->Alloc(200);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> data(200);
  PatternFill(2, data.data(), 200);
  ASSERT_TRUE(ctx_->Write(&*addr, data.data(), 200).ok());

  std::vector<uint8_t> direct(200), rpc(200);
  ASSERT_TRUE(ctx_->DirectRead(*addr, direct.data(), 200).ok());
  ASSERT_TRUE(ctx_->Read(&*addr, rpc.data(), 200).ok());
  EXPECT_EQ(direct, rpc);
  EXPECT_EQ(direct, data);
}

TEST(SingleWorkerNodeTest, ReadAfterFreeFails) {
  CormConfig config = SmallConfig();
  config.num_workers = 1;  // deterministic placement: same block
  CormNode node(config);
  auto ctx = Context::Create(&node);
  // Keep a sibling object alive so the block itself is not released.
  auto keeper = ctx->Alloc(32);
  auto addr = ctx->Alloc(32);
  ASSERT_TRUE(keeper.ok());
  ASSERT_TRUE(addr.ok());
  ASSERT_EQ(BlockBaseOf(keeper->vaddr, node.block_bytes()),
            BlockBaseOf(addr->vaddr, node.block_bytes()));
  GlobalAddr stale = *addr;
  ASSERT_TRUE(ctx->Free(&*addr).ok());
  std::vector<uint8_t> buf(32);
  Status st = ctx->Read(&stale, buf.data(), 32);
  EXPECT_FALSE(st.ok());
  // A one-sided read sees the tombstone.
  EXPECT_TRUE(ctx->DirectRead(stale, buf.data(), 32).IsObjectMoved());
}

TEST(SingleWorkerNodeTest, FreedBlockAddressBecomesStale) {
  CormConfig config = SmallConfig();
  config.num_workers = 1;
  CormNode node(config);
  auto ctx = Context::Create(&node);
  // When the *last* object of a block dies, the whole block is released;
  // its virtual address is no longer resolvable.
  auto addr = ctx->Alloc(32);
  ASSERT_TRUE(addr.ok());
  GlobalAddr stale = *addr;
  ASSERT_TRUE(ctx->Free(&*addr).ok());
  std::vector<uint8_t> buf(32);
  EXPECT_TRUE(ctx->Read(&stale, buf.data(), 32).IsStalePointer());
}

TEST_F(NodeTest, DoubleFreeRejected) {
  auto addr = ctx_->Alloc(32);
  ASSERT_TRUE(addr.ok());
  GlobalAddr copy = *addr;
  ASSERT_TRUE(ctx_->Free(&*addr).ok());
  EXPECT_FALSE(ctx_->Free(&copy).ok());
}

TEST_F(NodeTest, AllocationsLandInMatchingClasses) {
  // 4 KiB blocks: the largest usable class is 4096 (capacity 4025).
  for (uint32_t size : {1u, 8u, 24u, 56u, 100u, 500u, 2000u, 4000u}) {
    auto addr = ctx_->Alloc(size);
    ASSERT_TRUE(addr.ok()) << size;
    const uint32_t slot = node_.classes().ClassSize(addr->class_idx);
    EXPECT_GE(PayloadCapacity(slot), size);
  }
}

TEST_F(NodeTest, ObjectTooLargeRejected) {
  EXPECT_FALSE(ctx_->Alloc(1 << 20).ok());  // over the 4 KiB block
}

TEST_F(NodeTest, WriteBumpsVersionVisibleToDirectRead) {
  auto addr = ctx_->Alloc(64);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> a(64, 1), b(64, 2), out(64);
  ASSERT_TRUE(ctx_->Write(&*addr, a.data(), 64).ok());
  ASSERT_TRUE(ctx_->DirectRead(*addr, out.data(), 64).ok());
  EXPECT_EQ(out, a);
  ASSERT_TRUE(ctx_->Write(&*addr, b.data(), 64).ok());
  ASSERT_TRUE(ctx_->DirectRead(*addr, out.data(), 64).ok());
  EXPECT_EQ(out, b);
}

TEST_F(NodeTest, ManyObjectsDistinctAddresses) {
  std::vector<GlobalAddr> addrs;
  for (int i = 0; i < 500; ++i) {
    auto addr = ctx_->Alloc(24);
    ASSERT_TRUE(addr.ok());
    addrs.push_back(*addr);
  }
  for (size_t i = 0; i < addrs.size(); ++i) {
    for (size_t j = i + 1; j < addrs.size(); ++j) {
      ASSERT_NE(addrs[i].vaddr, addrs[j].vaddr);
    }
  }
}

TEST_F(NodeTest, BulkAllocPatternsReadable) {
  auto addrs = node_.BulkAlloc(1000, 48);
  ASSERT_TRUE(addrs.ok());
  ASSERT_EQ(addrs->size(), 1000u);
  std::vector<uint8_t> buf(48);
  // Bulk objects are pattern-filled by index.
  for (size_t i = 0; i < addrs->size(); i += 97) {
    ASSERT_TRUE(ctx_->DirectRead((*addrs)[i], buf.data(), 48).ok()) << i;
    EXPECT_TRUE(PatternCheck(i, buf.data(), 48)) << i;
  }
}

TEST_F(NodeTest, BulkFreeReleasesMemory) {
  const uint64_t before = node_.ActiveMemoryBytes();
  auto addrs = node_.BulkAlloc(2000, 48);
  ASSERT_TRUE(addrs.ok());
  EXPECT_GT(node_.ActiveMemoryBytes(), before);
  ASSERT_TRUE(node_.BulkFree(*addrs).ok());
  // Empty blocks are returned to the OS.
  EXPECT_EQ(node_.ActiveMemoryBytes(), before);
}

TEST_F(NodeTest, FragmentationReflectsFrees) {
  auto addrs = node_.BulkAlloc(1000, 48);
  ASSERT_TRUE(addrs.ok());
  auto frag0 = node_.Fragmentation();
  auto class_idx = node_.ClassForPayload(48);
  ASSERT_TRUE(class_idx.ok());
  EXPECT_NEAR(frag0[*class_idx].Ratio(), 1.0, 0.2);
  // Free every second object: ratio approaches 2.
  std::vector<GlobalAddr> half;
  for (size_t i = 0; i < addrs->size(); i += 2) half.push_back((*addrs)[i]);
  ASSERT_TRUE(node_.BulkFree(half).ok());
  auto frag1 = node_.Fragmentation();
  EXPECT_GT(frag1[*class_idx].Ratio(), 1.7);
}

TEST_F(NodeTest, StatsCountOperations) {
  auto addr = ctx_->Alloc(32);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> buf(16);
  ASSERT_TRUE(ctx_->Write(&*addr, buf.data(), 16).ok());
  ASSERT_TRUE(ctx_->Read(&*addr, buf.data(), 16).ok());
  ASSERT_TRUE(ctx_->Free(&*addr).ok());
  EXPECT_GE(node_.stats().rpc_allocs, 1u);
  EXPECT_GE(node_.stats().rpc_writes, 1u);
  EXPECT_GE(node_.stats().rpc_reads, 1u);
  EXPECT_GE(node_.stats().rpc_frees, 1u);
}

// stats() must add every shard's value of every CORM_NODE_COUNTERS entry
// into the NodeStats field of the same name.
TEST_F(NodeTest, StatsSumEveryCounter) {
  // perfbench sums NodeStats as a flat uint64_t array: one per entry plus
  // the two frame_slabs_* fields.
#define CORM_COUNT_ONE(name) +1
  static_assert(sizeof(NodeStats) ==
                (0 CORM_NODE_COUNTERS(CORM_COUNT_ONE) + 2) * sizeof(uint64_t));
#undef CORM_COUNT_ONE

  // One served Alloc counts rpc_allocs on a worker's shard.
  ASSERT_TRUE(ctx_->Alloc(32).ok());
  const NodeStats before = node_.stats();
  ASSERT_EQ(before.rpc_allocs, 1u);

  // A distinct amount per entry on the overflow shard: entry i gets i + 1.
  NodeStatShard& overflow = node_.client_stat_shard();
  uint64_t amount = 0;
#define CORM_ADD_DISTINCT(name) overflow.name.Add(++amount);
  CORM_NODE_COUNTERS(CORM_ADD_DISTINCT)
#undef CORM_ADD_DISTINCT

  // Idle workers park and wake on their own shards meanwhile, so the three
  // worker_park* counters can only be bounded from below.
  const NodeStats after = node_.stats();
  amount = 0;
#define CORM_CHECK_SUMMED(name)                                  \
  ++amount;                                                      \
  if (std::string_view(#name).starts_with("worker_park")) {      \
    EXPECT_GE(after.name - before.name, amount) << #name;        \
  } else {                                                       \
    EXPECT_EQ(after.name - before.name, amount) << #name;        \
  }
  CORM_NODE_COUNTERS(CORM_CHECK_SUMMED)
#undef CORM_CHECK_SUMMED
  // Both shards' rpc_allocs: the worker's Alloc plus entry 0's amount.
  EXPECT_EQ(after.rpc_allocs, 2u);
}

TEST_F(NodeTest, LocalContextReads) {
  Context::Options local;
  local.local = true;
  auto lctx = Context::Create(&node_, local);
  auto addr = ctx_->Alloc(64);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> data(64);
  PatternFill(9, data.data(), 64);
  ASSERT_TRUE(ctx_->Write(&*addr, data.data(), 64).ok());
  std::vector<uint8_t> out(64);
  ASSERT_TRUE(lctx->DirectRead(*addr, out.data(), 64).ok());
  EXPECT_EQ(out, data);
}

TEST_F(NodeTest, ScanReadFindsObjectWithWrongHint) {
  auto addr = ctx_->Alloc(64);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> data(64);
  PatternFill(4, data.data(), 64);
  ASSERT_TRUE(ctx_->Write(&*addr, data.data(), 64).ok());

  // Corrupt the offset hint: DirectRead must fail, ScanRead must recover.
  GlobalAddr bogus = *addr;
  const size_t slot_size = node_.classes().ClassSize(bogus.class_idx);
  const sim::VAddr base = BlockBaseOf(bogus.vaddr, node_.block_bytes());
  bogus.vaddr = base + ((bogus.vaddr - base + slot_size) %
                        (node_.block_bytes() / slot_size * slot_size));
  std::vector<uint8_t> out(64);
  EXPECT_TRUE(ctx_->DirectRead(bogus, out.data(), 64).IsObjectMoved());
  ASSERT_TRUE(ctx_->ScanRead(&bogus, out.data(), 64).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(bogus.vaddr, addr->vaddr);  // pointer corrected
}

TEST_F(NodeTest, RpcReadCorrectsWrongHint) {
  auto addr = ctx_->Alloc(64);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> data(64);
  PatternFill(5, data.data(), 64);
  ASSERT_TRUE(ctx_->Write(&*addr, data.data(), 64).ok());

  GlobalAddr bogus = *addr;
  const size_t slot_size = node_.classes().ClassSize(bogus.class_idx);
  const sim::VAddr base = BlockBaseOf(bogus.vaddr, node_.block_bytes());
  bogus.vaddr = base + ((bogus.vaddr - base + slot_size) %
                        (node_.block_bytes() / slot_size * slot_size));
  std::vector<uint8_t> out(64);
  ASSERT_TRUE(ctx_->Read(&bogus, out.data(), 64).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(bogus.vaddr, addr->vaddr);
  EXPECT_GE(ctx_->stats().pointer_corrections, 1u);
}

TEST_F(NodeTest, ReadWithRecoveryHandlesWrongHint) {
  auto addr = ctx_->Alloc(64);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> data(64);
  PatternFill(6, data.data(), 64);
  ASSERT_TRUE(ctx_->Write(&*addr, data.data(), 64).ok());

  GlobalAddr bogus = *addr;
  const size_t slot_size = node_.classes().ClassSize(bogus.class_idx);
  const sim::VAddr base = BlockBaseOf(bogus.vaddr, node_.block_bytes());
  bogus.vaddr = base + ((bogus.vaddr - base + slot_size) %
                        (node_.block_bytes() / slot_size * slot_size));
  std::vector<uint8_t> out(64, 0);
  ASSERT_TRUE(ctx_->ReadWithRecovery(&bogus, out.data(), 64,
                                     Context::MovedFallback::kRpcRead)
                  .ok());
  EXPECT_EQ(out, data);
}

TEST_F(NodeTest, VirtualMemoryTracked) {
  const uint64_t before = node_.VirtualMemoryBytes();
  auto addrs = node_.BulkAlloc(500, 48);
  ASSERT_TRUE(addrs.ok());
  EXPECT_GT(node_.VirtualMemoryBytes(), before);
  ASSERT_TRUE(node_.BulkFree(*addrs).ok());
  EXPECT_EQ(node_.VirtualMemoryBytes(), before);
}

// Paper Table 1 / §4 setup: FaRM emulation is the same node with IDs off.
TEST(FarmNodeTest, CompactionRefusedWithoutIds) {
  CormConfig config = SmallConfig();
  config.object_id_bits = 0;
  CormNode farm(config);
  auto ctx = Context::Create(&farm);
  auto addr = ctx->Alloc(32);
  ASSERT_TRUE(addr.ok());
  auto class_idx = farm.ClassForPayload(32);
  ASSERT_TRUE(class_idx.ok());
  auto report = farm.Compact(*class_idx);
  EXPECT_EQ(report.status().code(), StatusCode::kNotSupported);
  // Reads still work (same consistency protocol).
  std::vector<uint8_t> buf(32);
  EXPECT_TRUE(ctx->DirectRead(*addr, buf.data(), 32).ok());
}

}  // namespace
}  // namespace corm::core
