// Unit tests for src/common: Status/Result, Rng, Zipf, Histogram,
// MpmcQueue, math utilities, the integrity hash.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "common/byte_units.h"
#include "common/checksum.h"
#include "common/histogram.h"
#include "common/math_util.h"
#include "common/mpmc_queue.h"
#include "common/random.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/zipf.h"

namespace corm {
namespace {

// --- Status / Result -------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::ObjectMoved("hint stale");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsObjectMoved());
  EXPECT_EQ(st.message(), "hint stale");
  EXPECT_EQ(st.ToString(), "ObjectMoved: hint stale");
}

TEST(StatusTest, CopyAndMove) {
  Status st = Status::TornRead("versions differ");
  Status copy = st;
  EXPECT_TRUE(copy.IsTornRead());
  EXPECT_TRUE(st.IsTornRead());
  Status moved = std::move(st);
  EXPECT_TRUE(moved.IsTornRead());
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int code : {0, 1, 2, 3, 4, 5, 6, 10, 11, 12, 13, 14, 15}) {
    EXPECT_NE(StatusCodeToString(static_cast<StatusCode>(code)), "Unknown");
  }
}

TEST(ResultTest, ValueAccess) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, ErrorAccess) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

// --- Rng --------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

// --- Zipf --------------------------------------------------------------------

TEST(ZipfTest, KeysInRange) {
  ZipfGenerator zipf(1000, 0.99, 3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.Next(), 1000u);
  }
}

TEST(ZipfTest, SkewFavorsSmallKeys) {
  ZipfGenerator zipf(100000, 0.99, 3);
  uint64_t in_top_100 = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Next() < 100) ++in_top_100;
  }
  // With theta=0.99 the head is very hot: far beyond the uniform 0.1%.
  EXPECT_GT(in_top_100, static_cast<uint64_t>(n) / 5);
}

TEST(ZipfTest, LowThetaApproachesUniform) {
  ZipfGenerator zipf(1000, 0.01, 3);
  uint64_t in_top_100 = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Next() < 100) ++in_top_100;
  }
  EXPECT_NEAR(static_cast<double>(in_top_100) / n, 0.1, 0.05);
}

// --- Histogram ---------------------------------------------------------------

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v * 1000);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1000u);
  EXPECT_EQ(h.max(), 100000u);
  EXPECT_NEAR(h.Mean(), 50500, 1);
  // Log-linear buckets keep ~6% relative error.
  EXPECT_NEAR(static_cast<double>(h.Median()), 50000, 4000);
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.99)), 99000, 7000);
}

TEST(HistogramTest, Merge) {
  Histogram a, b;
  a.Record(10);
  b.Record(1000000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000000u);
}

TEST(HistogramTest, SmallValuesExact) {
  Histogram h;
  for (uint64_t v = 0; v < 16; ++v) h.Record(v);
  EXPECT_EQ(h.Percentile(0.0), 0u);
  EXPECT_EQ(h.Median(), 7u);
}

// --- MpmcQueue ---------------------------------------------------------------

TEST(MpmcQueueTest, FifoSingleThread) {
  MpmcQueue<int> q(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.TryPush(i));
  EXPECT_FALSE(q.TryPush(9));  // full
  for (int i = 0; i < 8; ++i) {
    auto v = q.TryPop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(MpmcQueueTest, ConcurrentProducersConsumers) {
  MpmcQueue<uint64_t> q(1024);
  constexpr int kProducers = 4, kConsumers = 4;
  constexpr uint64_t kPerProducer = 20000;
  std::atomic<uint64_t> sum{0}, popped{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        const uint64_t v = static_cast<uint64_t>(p) * kPerProducer + i + 1;
        while (!q.TryPush(v)) {
        }
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (popped.load() < kProducers * kPerProducer) {
        if (auto v = q.TryPop()) {
          sum.fetch_add(*v);
          popped.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const uint64_t n = kProducers * kPerProducer;
  EXPECT_EQ(sum.load(), n * (n + 1) / 2);
}

// --- Math utilities ----------------------------------------------------------

TEST(MathTest, LogBinomialMatchesSmallCases) {
  EXPECT_NEAR(std::exp(LogBinomial(5, 2)), 10.0, 1e-9);
  EXPECT_NEAR(std::exp(LogBinomial(10, 5)), 252.0, 1e-6);
  EXPECT_TRUE(std::isinf(LogBinomial(3, 5)));
}

TEST(MathTest, BinomialRatio) {
  // C(4,2)/C(6,2) = 6/15 = 0.4
  EXPECT_NEAR(BinomialRatio(4, 6, 2), 0.4, 1e-12);
  EXPECT_EQ(BinomialRatio(1, 6, 2), 0.0);  // C(1,2) = 0
}

TEST(ByteUnitsTest, AlignAndFormat) {
  EXPECT_EQ(AlignUp(1, 8), 8u);
  EXPECT_EQ(AlignUp(8, 8), 8u);
  EXPECT_EQ(AlignUp(4097, 4096), 8192u);
  EXPECT_TRUE(IsPowerOfTwo(4096));
  EXPECT_FALSE(IsPowerOfTwo(48));
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2 * kGiB), "2.00 GiB");
}

TEST(SliceTest, BasicsAndEquality) {
  std::string s = "hello";
  Slice a(s), b("hello", 5), c("help", 4);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a.ToString(), "hello");
  EXPECT_TRUE(Slice().empty());
}


// --- Integrity hash ---------------------------------------------------------

// Deterministic pseudo-random bytes. The property tests use 144 of them:
// the log record a replicated 64-B write ships.
std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.Next());
  return out;
}

// The one-span form: `n` bytes seeded with n.
uint32_t Checksum32(const void* data, size_t n) {
  return IntegrityHash(n).Update(data, n).Finish();
}

TEST(IntegrityHashTest, EverySingleByteChangeChangesTheRecordChecksum) {
  std::vector<uint8_t> rec = RandomBytes(144, 1);
  const uint32_t base = Checksum32(rec.data(), rec.size());
  size_t collisions = 0;
  for (size_t i = 0; i < rec.size(); ++i) {
    const uint8_t orig = rec[i];
    for (int delta = 1; delta < 256; ++delta) {
      rec[i] = static_cast<uint8_t>(orig ^ delta);
      collisions += Checksum32(rec.data(), rec.size()) == base;
    }
    rec[i] = orig;
  }
  EXPECT_EQ(collisions, 0u);
}

TEST(IntegrityHashTest, EverySingleWordSubstitutionChangesTheRecordChecksum) {
  std::vector<uint8_t> rec = RandomBytes(144, 2);
  const uint32_t base = Checksum32(rec.data(), rec.size());
  Rng rng(3);
  size_t collisions = 0;
  for (size_t w = 0; w < rec.size() / 8; ++w) {
    uint64_t orig;
    std::memcpy(&orig, rec.data() + 8 * w, 8);
    // Structured substitutes (cleared, filled, one bit or byte off) plus
    // random ones.
    std::vector<uint64_t> subs = {0, ~uint64_t{0}, orig ^ 1,
                                  orig ^ (uint64_t{1} << 63),
                                  orig ^ 0xff00000000000000ull, ~orig};
    for (int k = 0; k < 2048; ++k) subs.push_back(rng.Next());
    for (uint64_t sub : subs) {
      if (sub == orig) continue;
      std::memcpy(rec.data() + 8 * w, &sub, 8);
      collisions += Checksum32(rec.data(), rec.size()) == base;
    }
    std::memcpy(rec.data() + 8 * w, &orig, 8);
  }
  EXPECT_EQ(collisions, 0u);
}

TEST(IntegrityHashTest, LengthAndSeedBothMatter) {
  // Zero padding makes "x" and "x\0..." identical words; the length seed
  // keeps them apart.
  const std::vector<uint8_t> zeros(32, 0);
  std::set<uint32_t> seen;
  for (size_t n = 0; n <= zeros.size(); ++n) {
    seen.insert(Checksum32(zeros.data(), n));
  }
  EXPECT_EQ(seen.size(), zeros.size() + 1);
  // The same bytes under a different seed hash differently.
  const std::vector<uint8_t> rec = RandomBytes(144, 4);
  const uint32_t one = Checksum32(rec.data(), rec.size());
  EXPECT_NE(one, IntegrityHash(145).Update(rec.data(), 144).Finish());
  EXPECT_NE(one, IntegrityHash(0).Update(rec.data(), 144).Finish());
}

TEST(IntegrityHashTest, ChainedSpansEqualTheZeroPaddedOneSpanForm) {
  const std::vector<uint8_t> a = RandomBytes(24, 5);
  const std::vector<uint8_t> b = RandomBytes(24, 6);
  for (size_t m = 0; m <= a.size(); ++m) {
    for (size_t n = 0; n <= b.size(); ++n) {
      const uint32_t chained =
          IntegrityHash(m + n).Update(a.data(), m).Update(b.data(), n).Finish();
      // Documented form: each span is zero-padded to a whole word.
      const size_t pad = (8 - m % 8) % 8;
      std::vector<uint8_t> padded(a.begin(), a.begin() + m);
      padded.resize(m + pad, 0);
      padded.insert(padded.end(), b.begin(), b.begin() + n);
      EXPECT_EQ(chained, IntegrityHash(m + n)
                             .Update(padded.data(), padded.size())
                             .Finish())
          << "m=" << m << " n=" << n;
      // So it equals the one-span hash of a ‖ b exactly when no padding
      // falls between them.
      std::vector<uint8_t> joined(a.begin(), a.begin() + m);
      joined.insert(joined.end(), b.begin(), b.begin() + n);
      const bool same = chained == Checksum32(joined.data(), joined.size());
      EXPECT_EQ(same, pad == 0 || n == 0) << "m=" << m << " n=" << n;
    }
  }
}

}  // namespace
}  // namespace corm
