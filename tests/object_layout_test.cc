// Tests for the object layout: header packing, FaRM-style per-cacheline
// version scatter/gather, and the lock-free consistency check.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "core/addr.h"
#include "core/client.h"
#include "core/corm_node.h"
#include "core/object_layout.h"
#include "sim/frame_epoch.h"

namespace corm::core {
namespace {

TEST(ObjectHeaderTest, PackUnpackRoundTrip) {
  ObjectHeader h;
  h.version = 0xAB;
  h.lock = LockState::kCompacting;
  h.class_idx = 0x2F;
  h.obj_id = 0xBEEF;
  h.home_page = 0xDEAD1234;
  const ObjectHeader r = ObjectHeader::Unpack(h.Pack());
  EXPECT_EQ(r.version, h.version);
  EXPECT_EQ(r.lock, h.lock);
  EXPECT_EQ(r.class_idx, h.class_idx);
  EXPECT_EQ(r.obj_id, h.obj_id);
  EXPECT_EQ(r.home_page, h.home_page);
}

TEST(ObjectHeaderTest, FieldsDoNotOverlap) {
  ObjectHeader a;
  a.version = 0xFF;
  ObjectHeader b;
  b.obj_id = 0xFFFF;
  ObjectHeader c;
  c.home_page = 0xFFFFFFFF;
  EXPECT_EQ(ObjectHeader::Unpack(a.Pack()).obj_id, 0);
  EXPECT_EQ(ObjectHeader::Unpack(b.Pack()).version, 0);
  EXPECT_EQ(ObjectHeader::Unpack(c.Pack()).obj_id, 0);
}

TEST(ObjectHeaderTest, HomePageRoundTrip) {
  const sim::VAddr base = sim::AddressSpace::kBase + 42 * sim::kVPageSize;
  EXPECT_EQ(HomeVaddrOf(HomePageOf(base)), base);
}

TEST(LayoutTest, PayloadCapacities) {
  EXPECT_EQ(PayloadCapacity(16), 8u);
  EXPECT_EQ(PayloadCapacity(32), 24u);
  EXPECT_EQ(PayloadCapacity(64), 56u);
  // 128 B = 2 cachelines: 8 header + 1 version byte.
  EXPECT_EQ(PayloadCapacity(128), 128u - 8 - 1);
  EXPECT_EQ(PayloadCapacity(4096), 4096u - 8 - 63);
  EXPECT_EQ(PayloadCapacity(8), 0u);
}

TEST(LayoutTest, SlotCachelines) {
  EXPECT_EQ(SlotCachelines(16), 1u);
  EXPECT_EQ(SlotCachelines(64), 1u);
  EXPECT_EQ(SlotCachelines(128), 2u);
  EXPECT_EQ(SlotCachelines(2048), 32u);
}

class PayloadRoundTrip : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PayloadRoundTrip, ScatterGatherPreservesBytes) {
  const uint32_t slot_size = GetParam();
  const uint32_t capacity = PayloadCapacity(slot_size);
  std::vector<uint8_t> slot(slot_size, 0xEE);
  std::vector<uint8_t> in(capacity);
  PatternFill(7, in.data(), capacity);

  WritePayload(slot.data(), slot_size, /*version=*/9, in.data(), capacity);
  std::vector<uint8_t> out(capacity, 0);
  ReadPayload(slot.data(), slot_size, out.data(), capacity);
  EXPECT_EQ(in, out);

  // Version bytes stamped at each additional cacheline boundary.
  for (uint32_t line = 1; line < SlotCachelines(slot_size); ++line) {
    EXPECT_EQ(slot[line * kCacheLineSize], 9) << "line " << line;
  }
}

TEST_P(PayloadRoundTrip, PartialReadsAndWrites) {
  const uint32_t slot_size = GetParam();
  const uint32_t capacity = PayloadCapacity(slot_size);
  const uint32_t len = capacity / 2;
  if (len == 0) return;
  std::vector<uint8_t> slot(slot_size, 0);
  std::vector<uint8_t> in(len);
  PatternFill(3, in.data(), len);
  WritePayload(slot.data(), slot_size, 1, in.data(), len);
  std::vector<uint8_t> out(len);
  ReadPayload(slot.data(), slot_size, out.data(), len);
  EXPECT_EQ(in, out);
}

INSTANTIATE_TEST_SUITE_P(AllClasses, PayloadRoundTrip,
                         ::testing::Values(16, 32, 64, 128, 192, 256, 512,
                                           1024, 2048, 4096, 8192, 12288));

TEST(ConsistencyTest, FreshObjectIsConsistent) {
  std::vector<uint8_t> slot(256, 0);
  ObjectHeader h;
  h.version = 5;
  WritePayload(slot.data(), 256, 5, nullptr, 0);
  std::memcpy(slot.data(), &(const uint64_t&)h.Pack(), 0);  // no-op
  const uint64_t packed = h.Pack();
  std::memcpy(slot.data(), &packed, 8);
  EXPECT_TRUE(SnapshotConsistent(slot.data(), 256));
}

TEST(ConsistencyTest, TornCachelineDetected) {
  std::vector<uint8_t> slot(256, 0);
  ObjectHeader h;
  h.version = 5;
  WritePayload(slot.data(), 256, 5, nullptr, 0);
  const uint64_t packed = h.Pack();
  std::memcpy(slot.data(), &packed, 8);
  // A concurrent writer updated cacheline 2 (version 6) but not the rest —
  // exactly the torn state a DirectRead snapshot can capture.
  slot[2 * kCacheLineSize] = 6;
  EXPECT_FALSE(SnapshotConsistent(slot.data(), 256));
}

TEST(ConsistencyTest, LockedObjectInconsistent) {
  std::vector<uint8_t> slot(64, 0);
  ObjectHeader h;
  h.version = 1;
  h.lock = LockState::kWriteLocked;
  const uint64_t packed = h.Pack();
  std::memcpy(slot.data(), &packed, 8);
  EXPECT_FALSE(SnapshotConsistent(slot.data(), 64));
}

TEST(ConsistencyTest, SingleCachelineOnlyChecksHeader) {
  std::vector<uint8_t> slot(32, 0xFF);
  ObjectHeader h;
  h.version = 3;
  const uint64_t packed = h.Pack();
  std::memcpy(slot.data(), &packed, 8);
  EXPECT_TRUE(SnapshotConsistent(slot.data(), 32));
}

// --- The header-claim primitive (ClaimHeader / CommitWrite). -------------

constexpr uint16_t kClaimId = 0x1234;

ObjectHeader ClaimProbe(LockState lock) {
  ObjectHeader h;
  h.version = 7;
  h.lock = lock;
  h.class_idx = 3;
  h.obj_id = kClaimId;
  h.home_page = 42;
  return h;
}

struct ClaimCase {
  LockState state;
  bool id_matches;
  ClaimOutcome expected;
};

class ClaimHeaderTable : public ::testing::TestWithParam<ClaimCase> {};

// Every lock state crossed with a matching and a mismatching object ID. A
// writer lock that nobody releases runs the spin bound out: kBusy.
TEST_P(ClaimHeaderTable, OutcomePerStateAndId) {
  const ClaimCase c = GetParam();
  alignas(8) uint8_t slot[64] = {};
  const uint64_t before = ClaimProbe(c.state).Pack();
  StoreHeaderWord(slot, before);
  const uint32_t expect_id = c.id_matches ? kClaimId : kClaimId + 1;

  const HeaderClaim claim =
      ClaimHeader(slot, expect_id, LockState::kWriteLocked, /*spin_bound=*/4);
  EXPECT_EQ(claim.outcome, c.expected);
  EXPECT_EQ(claim.word, before);  // pre-claim word, or the last word seen
  if (c.expected == ClaimOutcome::kClaimed) {
    ObjectHeader locked = ClaimProbe(LockState::kWriteLocked);
    EXPECT_EQ(LoadHeaderWord(slot), locked.Pack());
  } else {
    EXPECT_EQ(LoadHeaderWord(slot), before);  // a failed claim writes nothing
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStates, ClaimHeaderTable,
    ::testing::Values(
        ClaimCase{LockState::kFree, true, ClaimOutcome::kClaimed},
        ClaimCase{LockState::kFree, false, ClaimOutcome::kGone},
        ClaimCase{LockState::kWriteLocked, true, ClaimOutcome::kBusy},
        ClaimCase{LockState::kWriteLocked, false, ClaimOutcome::kGone},
        ClaimCase{LockState::kCompacting, true, ClaimOutcome::kBusy},
        ClaimCase{LockState::kCompacting, false, ClaimOutcome::kBusy},
        ClaimCase{LockState::kTombstone, true, ClaimOutcome::kGone},
        ClaimCase{LockState::kTombstone, false, ClaimOutcome::kGone}));

TEST(ClaimHeaderTest, EachClaimStateLands) {
  for (LockState state : {LockState::kWriteLocked, LockState::kCompacting,
                          LockState::kTombstone}) {
    alignas(8) uint8_t slot[64] = {};
    StoreHeaderWord(slot, ClaimProbe(LockState::kFree).Pack());
    const HeaderClaim claim = ClaimHeader(slot, kClaimId, state, 0);
    ASSERT_TRUE(claim.claimed());
    EXPECT_EQ(claim.header().lock, LockState::kFree);
    EXPECT_EQ(LoadHeaderWord(slot), ClaimProbe(state).Pack());
  }
}

TEST(ClaimHeaderTest, AnyObjectIdSkipsTheIdCheck) {
  alignas(8) uint8_t slot[64] = {};
  StoreHeaderWord(slot, ClaimProbe(LockState::kFree).Pack());
  EXPECT_TRUE(
      ClaimHeader(slot, kAnyObjectId, LockState::kTombstone, 0).claimed());
  // A tombstone is gone whatever the expected ID.
  EXPECT_EQ(ClaimHeader(slot, kAnyObjectId, LockState::kTombstone, 0).outcome,
            ClaimOutcome::kGone);
}

TEST(ClaimHeaderTest, RewriteThatChangesNothingClaimsWithoutAStore) {
  alignas(8) uint8_t slot[64] = {};
  const uint64_t before = ClaimProbe(LockState::kFree).Pack();
  StoreHeaderWord(slot, before);
  auto same = [](ObjectHeader h) { return h; };
  const HeaderClaim claim = ClaimHeader(slot, kClaimId, same, 0);
  EXPECT_TRUE(claim.claimed());
  EXPECT_EQ(LoadHeaderWord(slot), before);

  auto rehome = [](ObjectHeader h) {
    h.home_page = 99;
    return h;
  };
  ASSERT_TRUE(ClaimHeader(slot, kClaimId, rehome, 0).claimed());
  EXPECT_EQ(ObjectHeader::Unpack(LoadHeaderWord(slot)).home_page, 99u);
  EXPECT_EQ(ObjectHeader::Unpack(LoadHeaderWord(slot)).lock, LockState::kFree);
}

// A writer that unlocks within the spin bound is waited out, not reported
// busy.
TEST(ClaimHeaderTest, WriterReleasedWithinTheBoundIsWaitedOut) {
  alignas(8) uint8_t slot[64] = {};
  StoreHeaderWord(slot, ClaimProbe(LockState::kWriteLocked).Pack());
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ReleaseClaim(slot, LockState::kWriteLocked);
  });
  const HeaderClaim claim =
      ClaimHeader(slot, kClaimId, LockState::kTombstone, /*spin_bound=*/1 << 30);
  writer.join();
  EXPECT_TRUE(claim.claimed());
  EXPECT_EQ(ObjectHeader::Unpack(LoadHeaderWord(slot)).lock,
            LockState::kTombstone);
}

TEST(ClaimHeaderTest, CommitWriteBumpsVersionAndUnlocks) {
  alignas(64) uint8_t slot[256] = {};
  StoreHeaderWord(slot, ClaimProbe(LockState::kFree).Pack());
  const HeaderClaim claim =
      ClaimHeader(slot, kClaimId, LockState::kWriteLocked, 0);
  ASSERT_TRUE(claim.claimed());
  std::vector<uint8_t> data(200);
  PatternFill(3, data.data(), data.size());
  CommitWrite(slot, sizeof(slot), claim.word, data.data(),
              static_cast<uint32_t>(data.size()),
              ConsistencyMode::kCachelineVersions, /*hold_ns=*/0);
  const ObjectHeader h = ObjectHeader::Unpack(LoadHeaderWord(slot));
  EXPECT_EQ(h.lock, LockState::kFree);
  EXPECT_EQ(h.version, NextVersion(7));
  EXPECT_EQ(h.obj_id, kClaimId);
  EXPECT_TRUE(SnapshotConsistent(slot, sizeof(slot)));
  std::vector<uint8_t> out(200);
  ReadPayload(slot, sizeof(slot), out.data(), 200);
  EXPECT_EQ(out, data);
}

TEST(ClaimHeaderTest, ReleaseClaimRestoresTheFreeHeader) {
  alignas(8) uint8_t slot[64] = {};
  const uint64_t before = ClaimProbe(LockState::kFree).Pack();
  StoreHeaderWord(slot, before);
  ASSERT_TRUE(ClaimHeader(slot, kClaimId, LockState::kCompacting, 0).claimed());
  ReleaseClaim(slot, LockState::kCompacting);
  EXPECT_EQ(LoadHeaderWord(slot), before);
}

// ScanRead validates the slot it finds exactly as DirectRead validates its
// snapshot: a locked or torn object fails both with the same StatusCode.
TEST(ClaimHeaderTest, ScanReadAndDirectReadAgreeOnLockedAndTornSlots) {
  CormConfig config;
  config.num_workers = 1;
  CormNode node(config);
  auto ctx = Context::Create(&node);
  auto addr = ctx->Alloc(200);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> data(200), out(200);
  PatternFill(11, data.data(), data.size());
  ASSERT_TRUE(ctx->Write(&*addr, data.data(), data.size()).ok());

  sim::FrameEpoch::Guard epoch;
  uint8_t* slot = node.rnic()->address_space()->TranslatePtr(addr->vaddr);
  ASSERT_NE(slot, nullptr);
  const uint64_t clean = LoadHeaderWord(slot);
  const uint8_t line1 = LoadVersionByte(slot + kCacheLineSize);

  auto expect_same = [&](StatusCode code, const char* what) {
    GlobalAddr scan = *addr;
    EXPECT_EQ(ctx->DirectRead(*addr, out.data(), out.size()).code(), code)
        << what;
    EXPECT_EQ(ctx->ScanRead(&scan, out.data(), out.size()).code(), code)
        << what;
  };
  for (LockState locked : {LockState::kWriteLocked, LockState::kCompacting}) {
    ObjectHeader h = ObjectHeader::Unpack(clean);
    h.lock = locked;
    StoreHeaderWord(slot, h.Pack());
    expect_same(StatusCode::kObjectLocked, "locked slot");
    StoreHeaderWord(slot, clean);
  }
  // Torn: cacheline 1 carries the next version, the header the old one.
  StoreVersionByte(slot + kCacheLineSize, NextVersion(line1));
  expect_same(StatusCode::kTornRead, "torn slot");
  StoreVersionByte(slot + kCacheLineSize, line1);

  expect_same(StatusCode::kOk, "clean slot");
  EXPECT_EQ(out, data);
}

TEST(GlobalAddrTest, SizeAndFlags) {
  EXPECT_EQ(sizeof(GlobalAddr), 16u);
  GlobalAddr addr;
  EXPECT_TRUE(addr.IsNull());
  EXPECT_FALSE(addr.ReferencesOldBlock());
  addr.flags = GlobalAddr::kFlagOldBlock;
  EXPECT_TRUE(addr.ReferencesOldBlock());
}

TEST(GlobalAddrTest, BlockBaseOf) {
  const size_t block = 4096;
  const sim::VAddr base = sim::AddressSpace::kBase;
  EXPECT_EQ(BlockBaseOf(base, block), base);
  EXPECT_EQ(BlockBaseOf(base + 100, block), base);
  EXPECT_EQ(BlockBaseOf(base + 4096 + 1, block), base + 4096);
  const size_t mib = 1 << 20;
  EXPECT_EQ(BlockBaseOf(base + mib + 77, mib), base + mib);
}

TEST(PatternTest, FillAndCheck) {
  std::vector<uint8_t> buf(128);
  PatternFill(5, buf.data(), 128);
  EXPECT_TRUE(PatternCheck(5, buf.data(), 128));
  EXPECT_FALSE(PatternCheck(6, buf.data(), 128));
  buf[100] ^= 1;
  EXPECT_FALSE(PatternCheck(5, buf.data(), 128));
}

}  // namespace
}  // namespace corm::core
