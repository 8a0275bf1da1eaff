// TSan-targeted stress regression (ctest -L tsan): eight client threads
// hammer alloc/free/write/read through a node whose eight workers each
// mutate their own ThreadAllocator, while a control thread forces repeated
// compactions (block ownership hand-offs between workers and the leader)
// and runs the full invariant audit. Under CORM_SANITIZE=thread this
// exercises every annotated hand-off: spinlocks, the MPMC inbox, block
// owner transfer, the seqlock read protocol, and the ranked directory
// locks. The assertions also make it a functional stress test in plain
// builds.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/lock_rank.h"
#include "common/math_util.h"
#include "common/mpmc_queue.h"
#include "common/random.h"
#include "core/client.h"
#include "core/corm_node.h"
#include "rdma/rpc_transport.h"

namespace corm::core {
namespace {

constexpr int kClients = 8;
constexpr uint32_t kPayload = 48;
constexpr int kOpsPerClient = 400;

CormConfig Config() {
  CormConfig config;
  config.num_workers = kClients;
  config.block_pages = 1;
  // Compact aggressively so ownership transfer happens mid-traffic.
  config.fragmentation_threshold = 1.01;
  config.collection_max_occupancy = 1.0;
  return config;
}

TEST(TsanStressTest, AllocFreeChurnWithConcurrentCompaction) {
  CormNode node(Config());
  const uint32_t class_idx = *node.ClassForPayload(kPayload);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed_ops{0};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&node, c, &completed_ops] {
      auto ctx = Context::Create(&node);
      Rng rng(0x5eed + static_cast<uint64_t>(c));
      std::vector<GlobalAddr> live;
      std::vector<uint8_t> buf(kPayload);
      for (int op = 0; op < kOpsPerClient; ++op) {
        const uint64_t dice = rng.Next() % 100;
        if (live.empty() || dice < 40) {
          auto addr = ctx->Alloc(kPayload);
          ASSERT_TRUE(addr.ok()) << addr.status();
          PatternFill(static_cast<uint64_t>(op), buf.data(), kPayload);
          Status st = Status::OK();
          for (int attempt = 0; attempt < 64; ++attempt) {
            st = ctx->Write(&*addr, buf.data(), kPayload);
            if (!st.IsObjectLocked()) break;  // compaction holds the object
            std::this_thread::yield();
          }
          ASSERT_TRUE(st.ok() || st.IsObjectLocked()) << st;
          live.push_back(*addr);
        } else if (dice < 70) {
          const size_t pick = rng.Next() % live.size();
          Status st = ctx->ReadWithRecovery(&live[pick], buf.data(), kPayload);
          // The object may be mid-move; recovery retries, so only a clean
          // success or a still-locked verdict is acceptable.
          ASSERT_TRUE(st.ok() || st.IsObjectLocked()) << st;
        } else {
          const size_t pick = rng.Next() % live.size();
          Status st = ctx->Free(&live[pick]);
          ASSERT_TRUE(st.ok() || st.IsObjectLocked()) << st;
          if (st.ok()) {
            live[pick] = live.back();
            live.pop_back();
          }
        }
        completed_ops.fetch_add(1, std::memory_order_relaxed);
      }
      // Drain: frees also exercise ghost release + empty-block destruction.
      for (GlobalAddr& addr : live) {
        for (int attempt = 0; attempt < 4096; ++attempt) {
          Status st = ctx->Free(&addr);
          if (st.ok()) break;
          ASSERT_TRUE(st.IsObjectLocked()) << st;
          std::this_thread::yield();
        }
      }
    });
  }

  // Control thread: force compactions + audits through the whole run.
  std::thread control([&node, class_idx, &stop] {
    uint64_t compactions = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      auto report = node.Compact(class_idx);
      if (report.ok()) ++compactions;
      Status audit = node.Audit();
      EXPECT_TRUE(audit.ok()) << audit;
      std::this_thread::yield();
    }
    EXPECT_GT(compactions, 0u) << "compaction never ran during the stress";
  });

  for (auto& t : clients) t.join();
  stop.store(true, std::memory_order_relaxed);
  control.join();

  EXPECT_EQ(completed_ops.load(),
            static_cast<uint64_t>(kClients) * kOpsPerClient);
  // Everything was freed: the final audit must pass and no thread may have
  // leaked a rank on the lock stack.
  Status audit = node.Audit();
  EXPECT_TRUE(audit.ok()) << audit;
  EXPECT_EQ(LockRankTracker::Depth(), 0);
}

// The message pool's two recycle paths racing (DESIGN.md §7.2): a client
// that waits for the completion recycles the message on its own thread; one
// that abandons it (a timeout) hands it to the server, whose Complete
// recycles it on the server thread — possibly while the client is already
// acquiring the next message. TSan must see the acq_rel state word as the
// only thing ordering the server's final accesses against the client's
// reuse, and must see no unsynchronized reuse, because an abandoned message
// can only re-enter circulation from the thread that shelved it. After
// every waited-for round the message is back on the client's freelist, so
// the steady state allocates nothing.
TEST(TsanStressTest, MessagePoolRecycleVsAbandonedUnref) {
  constexpr int kRounds = 20'000;

  MpmcQueue<rdma::RpcMessage*> ring(1024);
  std::atomic<bool> stop{false};
  // Server-side check failures, counted rather than asserted: a fatal
  // assertion would end the server thread and leave the client spinning on
  // a message nobody completes.
  std::atomic<uint64_t> bad_requests{0};

  // Server: pop, touch the request, write a response, complete.
  std::thread server([&] {
    // Run loop bounded by the stop flag. NOLINT(corm-spin-wait)
    while (!stop.load(std::memory_order_acquire)) {
      if (auto msg = ring.TryPop()) {
        rdma::RpcMessage* m = *msg;
        if (m->request.empty()) {
          bad_requests.fetch_add(1, std::memory_order_relaxed);
        }
        m->response.assign(m->request.begin(), m->request.end());
        m->Complete(Status::OK());
      } else {
        std::this_thread::yield();
      }
    }
  });

  // The client loop only breaks on failure: a fatal assertion would return
  // with `server` still joinable and std::terminate the binary.
  Rng rng(0xf00d);
  uint64_t abandoned = 0;
  uint64_t normal = 0;
  for (int i = 0; i < kRounds; ++i) {
    rdma::RpcMessage* msg = rdma::RpcMessagePool::Acquire();
    // Recycled messages arrive reset.
    EXPECT_TRUE(msg->request.empty()) << "round " << i;
    EXPECT_TRUE(msg->response.empty()) << "round " << i;
    if (!msg->request.empty() || !msg->response.empty()) {
      rdma::RpcMessagePool::Release(msg);
      break;
    }
    msg->request.assign(16, static_cast<uint8_t>(i));
    while (!ring.TryPush(msg)) std::this_thread::yield();
    if (rng.Chance(0.3) && msg->Abandon()) {
      // Abandoned before the server completed: the server recycles it.
      ++abandoned;
      continue;
    }
    // Normal path (or the server won the race to the state word): wait for
    // completion, read the response, then release on this thread.
    // Local server thread cannot die. NOLINT(corm-spin-wait)
    while (!msg->done()) {
      std::this_thread::yield();
    }
    const size_t response_size = msg->response.size();
    rdma::RpcMessagePool::Release(msg);
    EXPECT_EQ(response_size, 16u) << "round " << i;
    if (response_size != 16u) break;
    ++normal;
    if (rdma::RpcMessagePool::LocalFreeForTesting() == 0) {
      ADD_FAILURE() << "round " << i << ": a waited-for message left the "
                    << "client's freelist";
      break;
    }
  }
  stop.store(true, std::memory_order_release);
  server.join();

  EXPECT_EQ(bad_requests.load(), 0u);
  EXPECT_GT(abandoned, 0u);
  EXPECT_GT(normal, 0u);
}

// Two nodes' compaction planners evaluate the §3.4 probability model at the
// same time. LogBinomial must keep no hidden global state between them:
// std::lgamma writes glibc's `signgam` on every call, which TSan reports as
// a race between the two threads.
TEST(TsanStressTest, ConcurrentLogBinomial) {
  constexpr uint64_t kIters = 2'000;
  auto sum = [](double* out) {
    double acc = 0;
    for (uint64_t i = 0; i < kIters; ++i) acc += LogBinomial(1000 + i, i % 64);
    *out = acc;
  };
  double a = 0, b = 0;
  std::thread other(sum, &a);
  sum(&b);
  other.join();
  EXPECT_GT(a, 0.0);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace corm::core
