#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <thread>

#include "common/coding.h"
#include "common/logging.h"
#include "common/mathutil.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/statusor.h"

namespace hermes {
namespace {

// ---------------------------------------------------------------------------
// Status
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad sigma");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad sigma");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad sigma");
}

TEST(StatusTest, AllConstructorsMapToPredicates) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_EQ(Status::Unavailable("x").ToString(), "Unavailable: x");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::IOError("a"));
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status {
    HERMES_RETURN_NOT_OK(Status::IOError("disk gone"));
    return Status::OK();
  };
  EXPECT_TRUE(fails().IsIOError());
}

TEST(StatusTest, ReturnNotOkMacroPassesThroughOk) {
  auto succeeds = []() -> Status {
    HERMES_RETURN_NOT_OK(Status::OK());
    return Status::InvalidArgument("reached");
  };
  EXPECT_TRUE(succeeds().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// StatusOr
// ---------------------------------------------------------------------------

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.ValueOr(-1), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsNotFound());
  EXPECT_EQ(v.ValueOr(-1), -1);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(7);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> owned = std::move(v).value();
  EXPECT_EQ(*owned, 7);
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  auto provider = [](bool ok) -> StatusOr<int> {
    if (ok) return 10;
    return Status::OutOfRange("no");
  };
  auto consumer = [&](bool ok) -> StatusOr<int> {
    HERMES_ASSIGN_OR_RETURN(int x, provider(ok));
    return x * 2;
  };
  EXPECT_EQ(*consumer(true), 20);
  EXPECT_TRUE(consumer(false).status().IsOutOfRange());
}

// ---------------------------------------------------------------------------
// Math utilities
// ---------------------------------------------------------------------------

TEST(MathTest, ClampBounds) {
  EXPECT_EQ(Clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_EQ(Clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_EQ(Clamp(0.5, 0.0, 1.0), 0.5);
}

TEST(MathTest, AlmostEqualTolerances) {
  EXPECT_TRUE(AlmostEqual(1.0, 1.0));
  EXPECT_TRUE(AlmostEqual(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(AlmostEqual(1.0, 1.001));
  EXPECT_TRUE(AlmostEqual(1e12, 1e12 * (1 + 1e-10)));
}

TEST(MathTest, MeanAndVariance) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({2.0, 4.0}), 3.0);
  EXPECT_DOUBLE_EQ(Variance({5.0}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({1.0, 3.0}), 1.0);  // Population variance.
}

TEST(MathTest, PrefixSumsAndRangeSse) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  const auto ps = PrefixSum(xs);
  const auto pq = PrefixSqSum(xs);
  EXPECT_DOUBLE_EQ(ps[4], 10.0);
  EXPECT_DOUBLE_EQ(pq[4], 30.0);
  // SSE of {2,3} around mean 2.5 = 0.5.
  EXPECT_NEAR(RangeSse(ps, pq, 1, 2), 0.5, 1e-12);
  // SSE of a single element is 0.
  EXPECT_NEAR(RangeSse(ps, pq, 3, 3), 0.0, 1e-12);
}

TEST(MathTest, RangeSseNonNegativeOnConstantSignal) {
  const std::vector<double> xs(64, 3.14159);
  const auto ps = PrefixSum(xs);
  const auto pq = PrefixSqSum(xs);
  for (size_t i = 0; i < xs.size(); ++i) {
    for (size_t j = i; j < xs.size(); ++j) {
      EXPECT_GE(RangeSse(ps, pq, i, j), 0.0);
      EXPECT_NEAR(RangeSse(ps, pq, i, j), 0.0, 1e-6);
    }
  }
}

TEST(MathTest, SimpsonIntegratesPolynomialsExactly) {
  // Simpson is exact for cubics.
  auto cubic = [](double x) { return x * x * x - 2 * x + 1; };
  const double result = SimpsonIntegrate(cubic, 0.0, 2.0, 4);
  // Integral = x^4/4 - x^2 + x in [0,2] = 4 - 4 + 2 = 2.
  EXPECT_NEAR(result, 2.0, 1e-12);
}

TEST(MathTest, SimpsonHandlesOddPanelRequest) {
  auto f = [](double x) { return x; };
  EXPECT_NEAR(SimpsonIntegrate(f, 0.0, 1.0, 3), 0.5, 1e-12);
}

TEST(MathTest, GaussianKernelShape) {
  EXPECT_DOUBLE_EQ(GaussianKernel(0.0, 10.0), 1.0);
  EXPECT_NEAR(GaussianKernel(10.0, 10.0), std::exp(-0.5), 1e-12);
  EXPECT_GT(GaussianKernel(5.0, 10.0), GaussianKernel(15.0, 10.0));
  EXPECT_DOUBLE_EQ(GaussianKernel(1.0, 0.0), 0.0);   // Degenerate sigma.
  EXPECT_DOUBLE_EQ(GaussianKernel(0.0, 0.0), 1.0);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-3.0, 7.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 7.0);
  }
}

TEST(RngTest, NextBelowCoversRange) {
  Rng rng(17);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBelow(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(31);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(77);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.NextBool(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

// ---------------------------------------------------------------------------
// Coding
// ---------------------------------------------------------------------------

TEST(CodingTest, FixedWidthRoundTrip) {
  std::string buf;
  PutFixed16(&buf, 0xBEEF);
  PutFixed32(&buf, 0xDEADBEEFu);
  PutFixed64(&buf, 0x0123456789ABCDEFULL);
  PutDouble(&buf, -2.5);
  EXPECT_EQ(buf.size(), 2u + 4u + 8u + 8u);

  Decoder dec(buf);
  EXPECT_EQ(dec.ReadFixed16(), 0xBEEF);
  EXPECT_EQ(dec.ReadFixed32(), 0xDEADBEEFu);
  EXPECT_EQ(dec.ReadFixed64(), 0x0123456789ABCDEFULL);
  EXPECT_DOUBLE_EQ(dec.ReadDouble(), -2.5);
  EXPECT_EQ(dec.remaining(), 0u);
}

TEST(CodingTest, DecoderTracksRemaining) {
  std::string buf;
  PutFixed32(&buf, 7);
  PutFixed32(&buf, 8);
  Decoder dec(buf);
  EXPECT_EQ(dec.remaining(), 8u);
  dec.ReadFixed32();
  EXPECT_EQ(dec.remaining(), 4u);
}

TEST(CodingTest, DoubleSpecialValues) {
  std::string buf;
  PutDouble(&buf, 0.0);
  PutDouble(&buf, -0.0);
  PutDouble(&buf, 1e308);
  Decoder dec(buf);
  EXPECT_EQ(dec.ReadDouble(), 0.0);
  EXPECT_EQ(dec.ReadDouble(), -0.0);
  EXPECT_EQ(dec.ReadDouble(), 1e308);
}

// ---------------------------------------------------------------------------
// Logging
// ---------------------------------------------------------------------------

// A failed check must say why before it aborts: the condition and the
// streamed text both reach stderr.
TEST(LoggingDeathTest, FailedCheckPrintsItsMessage) {
  const int answer = 42;
  EXPECT_DEATH(HERMES_CHECK(answer == 41) << "streamed " << answer,
               "Check failed: answer == 41 streamed 42");
  EXPECT_DEATH(HERMES_CHECK_OK(Status::IOError("disk full")),
               "Check failed: _st.ok\\(\\) IOError: disk full");
}

// ---------------------------------------------------------------------------
// SharedMutex
// ---------------------------------------------------------------------------

// Writer preference: once a writer waits in lock(), a new shared
// acquisition queues behind it, so readers that keep overlapping cannot
// hold a writer off. (A reader-preferring lock never fails the probe.)
TEST(SharedMutexTest, WaitingWriterBlocksNewReaders) {
  using Clock = std::chrono::steady_clock;
  common::SharedMutex mu;
  std::atomic<bool> reading{false};
  std::atomic<bool> release{false};
  std::atomic<bool> wrote{false};
  std::thread reader([&] {
    mu.lock_shared();
    reading = true;
    while (!release) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    mu.unlock_shared();
  });
  while (!reading) std::this_thread::yield();
  std::thread writer([&] {
    mu.lock();
    wrote = true;
    mu.unlock();
  });
  // The writer blocks behind the reader; poll, bounded, until a new
  // shared acquisition is refused because the writer waits.
  bool refused = false;
  for (const auto deadline = Clock::now() + std::chrono::seconds(10);
       !refused && Clock::now() < deadline;) {
    if (mu.try_lock_shared()) {
      mu.unlock_shared();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } else {
      refused = true;
    }
  }
  EXPECT_TRUE(refused);
  EXPECT_FALSE(wrote);
  release = true;
  reader.join();
  writer.join();
  EXPECT_TRUE(wrote);
}

// Parameterized sweep: PutFixed64/GetFixed64 round-trips assorted patterns.
class CodingRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodingRoundTrip, Fixed64) {
  std::string buf;
  PutFixed64(&buf, GetParam());
  EXPECT_EQ(GetFixed64(buf.data()), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Patterns, CodingRoundTrip,
                         ::testing::Values(0ULL, 1ULL, 0xFFULL, 0xFFFFFFFFULL,
                                           0xFFFFFFFFFFFFFFFFULL,
                                           0x8000000000000000ULL,
                                           0x0102030405060708ULL));

}  // namespace
}  // namespace hermes
