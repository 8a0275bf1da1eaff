// Tests for the replicated log's ingress ring (DESIGN.md §11): records
// RDMA-written into a backup's registered ring, drained in sequence order
// by the applier. Single-threaded: each test ships, then drains.

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "rdma/queue_pair.h"
#include "rdma/repl_log_ring.h"
#include "rdma/repl_record.h"
#include "rdma/rnic.h"
#include "sim/address_space.h"
#include "sim/physical_memory.h"

namespace corm::rdma {
namespace {

class ReplLogRingTest : public ::testing::Test {
 protected:
  ReplLogRingTest()
      : space_(&phys_), rnic_(&space_, sim::LatencyModel{}), qp_(&rnic_) {}

  // RDMA-writes record `seq` carrying `payload` into its slot, as a
  // primary's shipper does. `corrupt` flips a payload byte after the crc
  // is sealed, modelling a torn write; `header_only` lands just the
  // record header, modelling a write whose payload bytes have not.
  void Ship(const ReplLogRing& ring, uint64_t seq, const std::string& payload,
            bool corrupt = false, bool header_only = false) {
    ReplRecordHeader h;
    h.magic = kReplRecordMagic;
    h.epoch = 1;
    h.seq = seq;
    h.version = seq + 100;
    h.kind = kReplRecordData;
    h.payload_len = static_cast<uint32_t>(payload.size());
    h.crc = ReplRecordCrc(h, payload.data(), payload.size());
    Buffer wire(sizeof(h) + payload.size());
    std::memcpy(wire.data(), &h, sizeof(h));
    std::memcpy(wire.data() + sizeof(h), payload.data(), payload.size());
    if (corrupt) wire.back() ^= 0xff;
    const sim::VAddr slot = ring.base() + sim::kVPageSize +
                            ((seq - 1) % ring.slots()) * ring.slot_bytes();
    const size_t len = header_only ? sizeof(h) : wire.size();
    ASSERT_TRUE(qp_.Write(ring.r_key(), slot, wire.data(), len).ok());
  }

  // The payload of the next arrived record, or "<none>".
  static std::string Next(ReplLogRing& ring, ReplRecordHeader* hdr = nullptr) {
    ReplRecordHeader h;
    Buffer payload;
    if (!ring.NextRecord(&h, &payload)) return "<none>";
    if (hdr != nullptr) *hdr = h;
    return std::string(payload.begin(), payload.end());
  }

  sim::PhysicalMemory phys_;
  sim::AddressSpace space_;
  Rnic rnic_;
  QueuePair qp_;
};

TEST_F(ReplLogRingTest, RoundTrip) {
  auto ring = ReplLogRing::Create(&space_, &rnic_, /*slots=*/8,
                                  /*slot_bytes=*/128);
  ASSERT_TRUE(ring.ok());
  EXPECT_EQ(ring->capacity(), 128u - sizeof(ReplRecordHeader));
  EXPECT_EQ(ring->applied(), 0u);
  EXPECT_EQ(Next(*ring), "<none>");

  Ship(*ring, 1, "shipped one-sidedly");
  ReplRecordHeader h;
  EXPECT_EQ(Next(*ring, &h), "shipped one-sidedly");
  EXPECT_EQ(h.seq, 1u);
  EXPECT_EQ(h.epoch, 1u);
  EXPECT_EQ(h.version, 101u);
  EXPECT_EQ(h.kind, kReplRecordData);
  ring->Advance();
  EXPECT_EQ(ring->applied(), 1u);
  EXPECT_EQ(Next(*ring), "<none>");  // drained
}

TEST_F(ReplLogRingTest, InOrderAcrossWraparound) {
  auto ring = ReplLogRing::Create(&space_, &rnic_, /*slots=*/4, 128);
  ASSERT_TRUE(ring.ok());
  // Three laps of a full ring: every slot is reused twice.
  uint64_t seq = 1;
  for (int lap = 0; lap < 3; ++lap) {
    for (uint64_t s = seq; s < seq + 4; ++s) {
      Ship(*ring, s, "rec-" + std::to_string(s));
    }
    for (int i = 0; i < 4; ++i, ++seq) {
      ReplRecordHeader h;
      ASSERT_EQ(Next(*ring, &h), "rec-" + std::to_string(seq));
      EXPECT_EQ(h.seq, seq);
      ring->Advance();
    }
    EXPECT_EQ(Next(*ring), "<none>");
  }
  EXPECT_EQ(ring->applied(), 12u);
}

TEST_F(ReplLogRingTest, BadCrcReadsAsNotArrived) {
  auto ring = ReplLogRing::Create(&space_, &rnic_, 4, 128);
  ASSERT_TRUE(ring.ok());
  Ship(*ring, 1, "torn in flight", /*corrupt=*/true);
  EXPECT_EQ(Next(*ring), "<none>");
  // The shipper's retransmit of the intact image is then accepted.
  Ship(*ring, 1, "torn in flight");
  EXPECT_EQ(Next(*ring), "torn in flight");
}

// A slot reused a lap later: the new record's header has landed but its
// payload bytes have not, so the slot still holds the previous lap's
// payload of the same length. The record crc covers the payload, so the
// slot reads as not arrived until the whole record is there.
TEST_F(ReplLogRingTest, NewHeaderOverPreviousLapPayloadReadsAsNotArrived) {
  auto ring = ReplLogRing::Create(&space_, &rnic_, 4, 128);
  ASSERT_TRUE(ring.ok());
  for (uint64_t s = 1; s <= 4; ++s) {
    Ship(*ring, s, "lap-one payload " + std::to_string(s));
    ASSERT_EQ(Next(*ring), "lap-one payload " + std::to_string(s));
    ring->Advance();
  }
  // Seq 5 reuses seq 1's slot with a payload of the same length.
  Ship(*ring, 5, "lap-two payload 5", /*corrupt=*/false, /*header_only=*/true);
  EXPECT_EQ(Next(*ring), "<none>");
  Ship(*ring, 5, "lap-two payload 5");
  ReplRecordHeader h;
  EXPECT_EQ(Next(*ring, &h), "lap-two payload 5");
  EXPECT_EQ(h.seq, 5u);
}

TEST_F(ReplLogRingTest, SeqOtherThanAppliedPlusOneReadsAsNotArrived) {
  auto ring = ReplLogRing::Create(&space_, &rnic_, 4, 128);
  ASSERT_TRUE(ring.ok());
  // Seq 5 shares slot 0 with seq 1 but is a lap early.
  Ship(*ring, 5, "a lap early");
  EXPECT_EQ(Next(*ring), "<none>");
  for (uint64_t s = 1; s <= 4; ++s) {
    Ship(*ring, s, "r");
    ASSERT_EQ(Next(*ring), "r");
    ring->Advance();
  }
  // Now seq 5 is due in slot 0; a re-shipped duplicate of the applied seq 1
  // lands there instead and must not be applied again.
  Ship(*ring, 1, "duplicate");
  EXPECT_EQ(Next(*ring), "<none>");
  Ship(*ring, 5, "due");
  EXPECT_EQ(Next(*ring), "due");
}

TEST_F(ReplLogRingTest, NextRecordDoesNotAdvance) {
  auto ring = ReplLogRing::Create(&space_, &rnic_, 4, 128);
  ASSERT_TRUE(ring.ok());
  Ship(*ring, 1, "first");
  Ship(*ring, 2, "second");
  EXPECT_EQ(Next(*ring), "first");
  EXPECT_EQ(Next(*ring), "first");  // still record 1: nothing advanced
  EXPECT_EQ(ring->applied(), 0u);
  ring->Advance();
  EXPECT_EQ(ring->applied(), 1u);
  EXPECT_EQ(Next(*ring), "second");
}

TEST_F(ReplLogRingTest, RejectsBadGeometry) {
  EXPECT_FALSE(ReplLogRing::Create(&space_, &rnic_, 0, 128).ok());
  EXPECT_FALSE(ReplLogRing::Create(&space_, &rnic_, 4,
                                   sizeof(ReplRecordHeader))
                   .ok());
}

TEST_F(ReplLogRingTest, DestructorReleasesPages) {
  const size_t frames = phys_.live_frames();
  const size_t mapped = space_.mapped_pages();
  const size_t reserved = space_.reserved_pages();
  RKey r_key = 0;
  {
    auto ring = ReplLogRing::Create(&space_, &rnic_, 64, 256);
    ASSERT_TRUE(ring.ok());
    r_key = ring->r_key();
    EXPECT_NE(rnic_.FindRegion(r_key), nullptr);
    // One control page plus 64 * 256 B of slots.
    EXPECT_EQ(space_.mapped_pages(), mapped + 5);
    EXPECT_EQ(space_.reserved_pages(), reserved + 5);
    EXPECT_EQ(phys_.live_frames(), frames + 5);
  }
  EXPECT_EQ(space_.mapped_pages(), mapped);
  EXPECT_EQ(space_.reserved_pages(), reserved);
  EXPECT_EQ(phys_.live_frames(), frames);
  EXPECT_EQ(rnic_.FindRegion(r_key), nullptr);  // deregistered too
}

}  // namespace
}  // namespace corm::rdma
