// Unit tests for the virtual-address reuse tracker (§3.3) and the RPC wire
// protocol encoding.

#include <gtest/gtest.h>

#include "core/rpc_protocol.h"
#include "core/vaddr_tracker.h"

namespace corm::core {
namespace {

constexpr sim::VAddr kA = sim::AddressSpace::kBase;
constexpr sim::VAddr kB = sim::AddressSpace::kBase + 0x1000;
constexpr sim::VAddr kC = sim::AddressSpace::kBase + 0x2000;

TEST(VaddrTrackerTest, CountsLiveHomedObjects) {
  VaddrTracker tracker;
  tracker.OnAlloc(kA);
  tracker.OnAlloc(kA);
  EXPECT_EQ(tracker.LiveHomed(kA), 2u);
  EXPECT_FALSE(tracker.OnFree(kA).has_value());
  EXPECT_EQ(tracker.LiveHomed(kA), 1u);
  EXPECT_FALSE(tracker.OnFree(kA).has_value());  // non-ghost: no release
  EXPECT_EQ(tracker.LiveHomed(kA), 0u);
}

TEST(VaddrTrackerTest, GhostReleasedWhenLastHomedObjectDies) {
  VaddrTracker tracker;
  tracker.OnAlloc(kA);
  tracker.OnAlloc(kA);
  auto immediate = tracker.MarkGhost(kA, /*r_key=*/7, nullptr);
  EXPECT_FALSE(immediate.has_value());  // two objects still homed
  EXPECT_EQ(tracker.NumGhosts(), 1u);
  EXPECT_FALSE(tracker.OnFree(kA).has_value());
  auto release = tracker.OnFree(kA);
  ASSERT_TRUE(release.has_value());
  EXPECT_EQ(release->base, kA);
  EXPECT_EQ(release->r_key, 7u);
  EXPECT_EQ(tracker.NumGhosts(), 0u);
}

TEST(VaddrTrackerTest, EmptyGhostReleasedImmediately) {
  VaddrTracker tracker;
  auto release = tracker.MarkGhost(kA, 9, nullptr);
  ASSERT_TRUE(release.has_value());
  EXPECT_EQ(release->base, kA);
}

TEST(VaddrTrackerTest, RehomeMovesTheCount) {
  VaddrTracker tracker;
  tracker.OnAlloc(kA);
  tracker.MarkGhost(kA, 1, nullptr);
  // ReleasePtr: the object is now homed in kB; kA can be released.
  auto release = tracker.OnRehome(kA, kB);
  ASSERT_TRUE(release.has_value());
  EXPECT_EQ(release->base, kA);
  EXPECT_EQ(tracker.LiveHomed(kB), 1u);
  EXPECT_FALSE(tracker.OnFree(kB).has_value());
}

TEST(VaddrTrackerTest, RetargetGhosts) {
  VaddrTracker tracker;
  auto* block_b = reinterpret_cast<alloc::Block*>(0x1);
  auto* block_c = reinterpret_cast<alloc::Block*>(0x2);
  tracker.OnAlloc(kA);
  tracker.MarkGhost(kA, 1, block_b);
  tracker.SetAliasTarget(kA, block_c);
  auto release = tracker.OnFree(kA);
  ASSERT_TRUE(release.has_value());
  EXPECT_EQ(release->alias_of, block_c);
}

TEST(VaddrTrackerTest, MixedHomesInterleaved) {
  VaddrTracker tracker;
  for (int i = 0; i < 10; ++i) tracker.OnAlloc(kA);
  for (int i = 0; i < 5; ++i) tracker.OnAlloc(kB);
  tracker.MarkGhost(kB, 3, nullptr);
  // Draining kA (non-ghost) never yields releases.
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(tracker.OnFree(kA).has_value());
  // Draining kB yields exactly one release, at the end.
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(tracker.OnFree(kB).has_value());
  EXPECT_TRUE(tracker.OnFree(kB).has_value());
}

TEST(VaddrTrackerTest, BlockDestroyedClearsEntry) {
  VaddrTracker tracker;
  tracker.OnAlloc(kC);
  tracker.OnFree(kC);
  tracker.OnBlockDestroyed(kC);  // count already zero: fine
  EXPECT_EQ(tracker.LiveHomed(kC), 0u);
}

// --- RPC protocol encoding ---------------------------------------------------

TEST(RpcProtocolTest, RequestRoundTripWithPayload) {
  WriteRequest req;
  req.addr.vaddr = 0xABCDEF;
  req.addr.obj_id = 77;
  req.size = 5;
  Buffer wire;
  const char payload[] = "hello";
  EncodeRequest(RpcOp::kWrite, req, &wire, Slice(payload, 5));
  EXPECT_EQ(PeekOp(wire), RpcOp::kWrite);
  WriteRequest out;
  Slice rest = DecodeRequest(wire, &out);
  EXPECT_EQ(out.addr.vaddr, req.addr.vaddr);
  EXPECT_EQ(out.addr.obj_id, req.addr.obj_id);
  EXPECT_EQ(out.size, req.size);
  EXPECT_EQ(rest.ToString(), "hello");
}

TEST(RpcProtocolTest, ResponseRoundTrip) {
  ReadResponse resp;
  resp.addr.vaddr = 42;
  resp.size = 3;
  Buffer wire;
  const char payload[] = "abc";
  EncodeResponse(resp, &wire, Slice(payload, 3));
  ReadResponse out;
  Slice rest = DecodeResponse(wire, &out);
  EXPECT_EQ(out.addr.vaddr, 42u);
  EXPECT_EQ(out.size, 3u);
  EXPECT_EQ(rest.ToString(), "abc");
}

TEST(RpcProtocolTest, EmptyPayloadRequests) {
  FreeRequest req;
  req.addr.obj_id = 5;
  Buffer wire;
  EncodeRequest(RpcOp::kFree, req, &wire);
  EXPECT_EQ(wire.size(), 1 + sizeof(FreeRequest));
  FreeRequest out;
  Slice rest = DecodeRequest(wire, &out);
  EXPECT_TRUE(rest.empty());
  EXPECT_EQ(out.addr.obj_id, 5u);
}

}  // namespace
}  // namespace corm::core
