// Unit tests for the util layer: bytes/hex, status, rng, stats, tables.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "util/bytes.hpp"
#include "util/key.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/status.hpp"
#include "util/table.hpp"

namespace {

TEST(BytesTest, HexRoundTrip) {
  const util::Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  const std::string hex = util::to_hex(data);
  EXPECT_EQ(hex, "0001abff7f");
  EXPECT_EQ(util::from_hex(hex), data);
}

TEST(BytesTest, HexUppercaseAccepted) {
  EXPECT_EQ(util::from_hex("ABCDEF"), (util::Bytes{0xab, 0xcd, 0xef}));
}

TEST(BytesTest, MalformedHexRejected) {
  EXPECT_TRUE(util::from_hex("abc").empty());   // odd length
  EXPECT_TRUE(util::from_hex("zz").empty());    // non-hex chars
}

TEST(BytesTest, EmptyHex) {
  EXPECT_EQ(util::to_hex({}), "");
  EXPECT_TRUE(util::from_hex("").empty());
}

TEST(BytesTest, StringRoundTrip) {
  const std::string s = "hello ibc";
  EXPECT_EQ(util::to_string(util::to_bytes(s)), s);
}

TEST(BytesTest, BigEndianIntegers) {
  util::Bytes b;
  util::append_u64_be(b, 0x0102030405060708ULL);
  util::append_u32_be(b, 0xdeadbeef);
  ASSERT_EQ(b.size(), 12u);
  EXPECT_EQ(b[0], 0x01);
  EXPECT_EQ(b[7], 0x08);
  EXPECT_EQ(util::read_u64_be(b, 0), 0x0102030405060708ULL);
  EXPECT_EQ(util::read_u32_be(b, 8), 0xdeadbeefu);
}

TEST(BytesTest, StackBigEndianMatchesAppend) {
  util::Bytes b;
  util::append_u64_be(b, 0x0102030405060708ULL);
  util::append_u32_be(b, 0xdeadbeef);
  const auto u64 = util::u64_be(0x0102030405060708ULL);
  EXPECT_TRUE(std::equal(u64.begin(), u64.end(), b.begin()));
  EXPECT_EQ(b.size(), 12u);
}

TEST(BytesTest, KeyConcatenatesStringsAndDecimals) {
  const std::string port = "transfer";
  const util::Key key("ibc/acks/ports/", port, "/sequences/",
                      std::uint64_t{18446744073709551615ULL}, "/",
                      std::int64_t{-42});
  EXPECT_EQ(key.view(),
            "ibc/acks/ports/transfer/sequences/18446744073709551615/-42");
  EXPECT_EQ(key.size(), key.view().size());
  util::Key grown("a");
  grown.append(std::uint64_t{0}).append("b");
  EXPECT_EQ(grown.str(), "a0b");
}

TEST(BytesTest, KeyMovesToTheHeapPastItsInlineCapacity) {
  const std::string piece(util::Key::kInline - 1, 'x');
  util::Key key(piece);
  EXPECT_EQ(key.view(), piece);
  key.append("y");  // exactly kInline bytes: still inline
  EXPECT_EQ(key.view(), piece + "y");
  key.append("z").append(std::uint64_t{7});  // outgrows it
  const std::string want = piece + "yz7";
  EXPECT_EQ(key.view(), want);
  const util::Key copy = key;
  util::Key assigned("short");
  assigned = key;
  EXPECT_EQ(copy.view(), want);
  EXPECT_EQ(assigned.view(), want);
  assigned = util::Key("short");  // back to inline
  EXPECT_EQ(assigned.view(), "short");
}

TEST(StatusTest, OkByDefault) {
  util::Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), util::ErrorCode::kOk);
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  auto s = util::Status::error(util::ErrorCode::kSequenceMismatch,
                               "expected 3, got 5");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), util::ErrorCode::kSequenceMismatch);
  EXPECT_EQ(s.to_string(), "SEQUENCE_MISMATCH: expected 3, got 5");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(util::ErrorCode::kInternal); ++c) {
    EXPECT_NE(util::error_code_name(static_cast<util::ErrorCode>(c)),
              "UNKNOWN");
  }
}

TEST(ResultTest, ValueAndStatus) {
  util::Result<int> ok(42);
  EXPECT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.value(), 42);

  util::Result<int> err(
      util::Status::error(util::ErrorCode::kNotFound, "nope"));
  EXPECT_FALSE(err.is_ok());
  EXPECT_EQ(err.status().code(), util::ErrorCode::kNotFound);
}

TEST(ResultTest, TakeMovesValue) {
  util::Result<std::string> r(std::string("payload"));
  EXPECT_EQ(r.take(), "payload");
}

TEST(RngTest, Deterministic) {
  util::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, SeedsDiffer) {
  util::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  util::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  util::Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  util::Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.uniform(-2.5, 3.5);
    EXPECT_GE(d, -2.5);
    EXPECT_LT(d, 3.5);
  }
}

TEST(RngTest, NormalHasRoughlyRightMoments) {
  util::Rng rng(13);
  double sum = 0, sum2 = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 2.0);
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(RngTest, ExponentialMean) {
  util::Rng rng(17);
  double sum = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(RngTest, ChanceProbability) {
  util::Rng rng(19);
  int hits = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.25)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(RngTest, SplitIndependentButDeterministic) {
  util::Rng a(42);
  util::Rng child1 = a.split();
  util::Rng b(42);
  util::Rng child2 = b.split();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(child1.next_u64(), child2.next_u64());
  }
}

TEST(SampleTest, BasicStatistics) {
  util::Sample s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(SampleTest, MedianAndQuartiles) {
  util::Sample s;
  for (int i = 1; i <= 101; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.median(), 51.0);
  EXPECT_DOUBLE_EQ(s.lower_quartile(), 26.0);
  EXPECT_DOUBLE_EQ(s.upper_quartile(), 76.0);
}

TEST(SampleTest, QuantileInterpolates) {
  util::Sample s;
  s.add(0.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 10.0);
}

TEST(SampleTest, EmptySampleIsSafe) {
  util::Sample s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.median(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(SampleTest, AddAllAndLazySortCache) {
  util::Sample s;
  s.add_all({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
  s.add(0.0);  // invalidates the sorted cache
  EXPECT_DOUBLE_EQ(s.median(), 1.5);
}

TEST(SampleTest, QuantileSingleObservation) {
  util::Sample s;
  s.add(42.0);
  // n=1: every quantile is the lone observation (no interpolation partner).
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 42.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 42.0);
}

TEST(SampleTest, QuantileTwoObservationsInterpolatesLinearly) {
  util::Sample s;
  s.add(10.0);
  s.add(20.0);
  // n=2: quantile q sits at 10 + q*10 exactly.
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 12.5);
  EXPECT_DOUBLE_EQ(s.quantile(0.75), 17.5);
  // Out-of-range q clamps instead of indexing out of bounds.
  EXPECT_DOUBLE_EQ(s.quantile(-0.5), 10.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.5), 20.0);
}

TEST(SampleTest, StddevOnConstantDataIsZero) {
  util::Sample s;
  for (int i = 0; i < 50; ++i) s.add(7.25);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 7.25);
  util::RunningStat r;
  for (int i = 0; i < 50; ++i) r.add(7.25);
  EXPECT_DOUBLE_EQ(r.stddev(), 0.0);
}

TEST(RunningStatTest, MatchesSample) {
  util::Sample s;
  util::RunningStat r;
  util::Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(0, 100);
    s.add(v);
    r.add(v);
  }
  EXPECT_NEAR(r.mean(), s.mean(), 1e-9);
  EXPECT_NEAR(r.stddev(), s.stddev(), 1e-9);
  EXPECT_DOUBLE_EQ(r.min(), s.min());
  EXPECT_DOUBLE_EQ(r.max(), s.max());
}

TEST(RunningStatTest, MergeMatchesSingleAccumulator) {
  // Chan et al. combination: splitting a stream across accumulators and
  // merging must agree with one accumulator that saw everything.
  util::RunningStat whole, part_a, part_b;
  util::Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform(-50, 50);
    whole.add(v);
    (i % 3 == 0 ? part_a : part_b).add(v);
  }
  part_a.merge(part_b);
  EXPECT_EQ(part_a.count(), whole.count());
  EXPECT_NEAR(part_a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(part_a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(part_a.min(), whole.min());
  EXPECT_DOUBLE_EQ(part_a.max(), whole.max());
}

TEST(RunningStatTest, MergeEmptyEdgeCases) {
  util::RunningStat empty, filled;
  filled.add(1.0);
  filled.add(3.0);

  util::RunningStat target = filled;
  target.merge(empty);  // merging nothing changes nothing
  EXPECT_EQ(target.count(), 2u);
  EXPECT_DOUBLE_EQ(target.mean(), 2.0);

  util::RunningStat fresh;
  fresh.merge(filled);  // merging into empty adopts the other side
  EXPECT_EQ(fresh.count(), 2u);
  EXPECT_DOUBLE_EQ(fresh.mean(), 2.0);
  EXPECT_DOUBLE_EQ(fresh.min(), 1.0);
  EXPECT_DOUBLE_EQ(fresh.max(), 3.0);
}

TEST(TableTest, PrintsAlignedColumns) {
  util::Table t({"rate", "tfps"});
  t.add_row({"250", "200.1"});
  t.add_row({"13000", "330"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("rate"), std::string::npos);
  EXPECT_NE(out.find("13000"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TableTest, CsvEscaping) {
  util::Table t({"a"});
  t.add_row({"plain"});
  t.add_row({"with,comma"});
  t.add_row({"with\"quote"});
  const std::string path = "/tmp/ibc_perf_table_test.csv";
  t.write_csv(path);
  std::ifstream f(path);
  std::string content((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(content.find("\"with\"\"quote\""), std::string::npos);
}

TEST(FormatTest, FmtDouble) {
  EXPECT_EQ(util::fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(util::fmt_double(2.0, 0), "2");
}

TEST(FormatTest, FmtIntThousands) {
  EXPECT_EQ(util::fmt_int(1050000), "1,050,000");
  EXPECT_EQ(util::fmt_int(999), "999");
  EXPECT_EQ(util::fmt_int(0), "0");
  EXPECT_EQ(util::fmt_int(-12345), "-12,345");
}

TEST(FormatTest, FmtPercent) {
  EXPECT_EQ(util::fmt_percent(0.983), "98.3%");
  EXPECT_EQ(util::fmt_percent(1.0, 0), "100%");
}

}  // namespace
