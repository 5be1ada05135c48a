#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "net/trace_file.hh"
#include "util/require.hh"
#include "util/rng.hh"

namespace puffer::net {
namespace {

constexpr double kMbps = 1e6 / 8.0;  // bytes/s per Mbit/s

TEST(TraceFile, ParsesMahimahiFormat) {
  std::istringstream in{"0\n5\n5\n12\n1000\n"};
  const TraceFile trace = TraceFile::parse(in);
  EXPECT_EQ(trace.num_packets(), 5u);
  EXPECT_EQ(trace.delivery_times_ms(),
            (std::vector<uint64_t>{0, 5, 5, 12, 1000}));
  EXPECT_DOUBLE_EQ(trace.duration_s(), 1.0);
}

TEST(TraceFile, ToleratesBlankLinesAndCarriageReturns) {
  std::istringstream in{"3\r\n\n7\r\n\n"};
  const TraceFile trace = TraceFile::parse(in);
  EXPECT_EQ(trace.delivery_times_ms(), (std::vector<uint64_t>{3, 7}));
}

TEST(TraceFile, RejectsGarbage) {
  std::istringstream empty{""};
  EXPECT_THROW(TraceFile::parse(empty), RequirementError);
  std::istringstream words{"12\nhello\n"};
  EXPECT_THROW(TraceFile::parse(words), RequirementError);
  std::istringstream negative{"-5\n"};
  EXPECT_THROW(TraceFile::parse(negative), RequirementError);
  std::istringstream padded_negative{" -5\n"};  // stoull would wrap this
  EXPECT_THROW(TraceFile::parse(padded_negative), RequirementError);
  std::istringstream overflow{"99999999999999999999999\n"};
  EXPECT_THROW(TraceFile::parse(overflow), RequirementError);
  std::istringstream decreasing{"10\n5\n"};
  EXPECT_THROW(TraceFile::parse(decreasing), RequirementError);
  std::istringstream trailing{"12x\n"};
  EXPECT_THROW(TraceFile::parse(trailing), RequirementError);
}

TEST(TraceFile, RejectsNonIntegerTimestampSpellings) {
  // NaN/inf spellings, fractional, scientific and signed numbers are all
  // rejected with the offending line number and content in the message.
  for (const std::string bad : {"nan", "inf", "3.5", "1e3", "+7", "0x10"}) {
    std::istringstream in{"2\n" + bad + "\n"};
    try {
      TraceFile::parse(in);
      FAIL() << "expected RequirementError for '" << bad << "'";
    } catch (const RequirementError& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("line 2"), std::string::npos) << bad;
      EXPECT_NE(message.find("'" + bad + "'"), std::string::npos) << bad;
    }
  }
}

TEST(TraceFile, BackwardsTimeErrorNamesBothTimestamps) {
  std::istringstream in{"100\n40\n"};
  try {
    TraceFile::parse(in);
    FAIL() << "expected RequirementError";
  } catch (const RequirementError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("goes back in time"), std::string::npos);
    EXPECT_NE(message.find("40"), std::string::npos);
    EXPECT_NE(message.find("100"), std::string::npos);
  }
}

TEST(TraceFile, RejectsTimestampsPastOneDay) {
  // A 14-byte file whose one timestamp would make to_trace() allocate one
  // bin per 0.5 s for 30 years.
  std::istringstream huge{"1000000000000\n"};
  try {
    TraceFile::parse(huge);
    FAIL() << "expected RequirementError";
  } catch (const RequirementError& error) {
    EXPECT_NE(std::string{error.what()}.find("line 1"), std::string::npos);
  }
  EXPECT_THROW(TraceFile{{TraceFile::kMaxTimestampMs + 1}}, RequirementError);

  std::istringstream one_day{"86400000\n"};
  const TraceFile trace = TraceFile::parse(one_day);
  EXPECT_EQ(trace.delivery_times_ms().back(), 86400000u);
  EXPECT_EQ(trace.to_trace(0.5).num_segments(), 172800u);
}

TEST(TraceFile, LoadErrorNamesTheFile) {
  const std::string path = ::testing::TempDir() + "/corrupt.trace";
  {
    std::ofstream out{path};
    out << "5\nbogus\n";
  }
  try {
    TraceFile::load(path);
    FAIL() << "expected RequirementError";
  } catch (const RequirementError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find(path), std::string::npos);
    EXPECT_NE(message.find("line 2"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(TraceFile, RejectsUnsortedConstruction) {
  EXPECT_THROW(TraceFile({3, 1}), RequirementError);
  EXPECT_THROW(TraceFile(std::vector<uint64_t>{}), RequirementError);
}

TEST(TraceFile, SaveLoadRoundTripsExactly) {
  // Random non-decreasing timestamps, including duplicates and a long gap.
  Rng rng{101};
  std::vector<uint64_t> times;
  uint64_t t = 0;
  for (int i = 0; i < 5000; i++) {
    t += static_cast<uint64_t>(rng.uniform_int(0, 40));
    times.push_back(t);
  }
  const TraceFile original{times};

  const std::string path = ::testing::TempDir() + "/roundtrip.trace";
  original.save(path);
  const TraceFile loaded = TraceFile::load(path);
  EXPECT_EQ(original, loaded);  // bit-exact round trip
  std::remove(path.c_str());
}

TEST(TraceFile, StreamRoundTripIsExactToo) {
  const TraceFile original{{0, 1, 1, 2, 500, 10000}};
  std::stringstream buffer;
  original.write(buffer);
  EXPECT_EQ(TraceFile::parse(buffer), original);
}

TEST(TraceFile, LoadMissingFileThrows) {
  EXPECT_THROW(TraceFile::load("/nonexistent/path.trace"), RequirementError);
}

TEST(TraceFile, FromTraceQuantizesCapacity) {
  // 12 Mbit/s for 1 s delivers exactly 1000 packets of 1500 B.
  const ThroughputTrace trace{{12.0 * kMbps}, 1.0};
  const TraceFile file = TraceFile::from_trace(trace);
  EXPECT_EQ(file.num_packets(), 1000u);
  EXPECT_LE(file.duration_s(), 1.0);
  // Delivery opportunities are evenly spaced, one per millisecond, each
  // stamped at the instant its 1500 bytes complete.
  EXPECT_EQ(file.delivery_times_ms().front(), 1u);
  EXPECT_EQ(file.delivery_times_ms().back(), 1000u);
}

TEST(TraceFile, FromTraceSkipsZeroCapacitySegments) {
  const ThroughputTrace trace{{12.0 * kMbps, 0.0, 12.0 * kMbps}, 1.0};
  const TraceFile file = TraceFile::from_trace(trace);
  // No delivery opportunity lands inside the dead middle second (a packet
  // stamped exactly 1000 finished accumulating in the live first second).
  for (const uint64_t t : file.delivery_times_ms()) {
    EXPECT_TRUE(t <= 1000 || t > 2000) << "packet in dead segment at " << t;
  }
  EXPECT_EQ(file.num_packets(), 2000u);
}

TEST(TraceFile, ToTraceRecoversMeanRate) {
  Rng rng{77};
  for (int trial = 0; trial < 20; trial++) {
    // Random piecewise-constant trace between 1 and 30 Mbit/s.
    std::vector<double> rates;
    for (int i = 0; i < 60; i++) {
      rates.push_back(rng.uniform(1.0, 30.0) * kMbps);
    }
    const ThroughputTrace original{rates, 1.0};
    const TraceFile file = TraceFile::from_trace(original);
    const ThroughputTrace recovered = file.to_trace(1.0);
    // Quantization to 1500-byte packets loses less than one packet per
    // second of trace.
    EXPECT_NEAR(recovered.mean_rate(), original.mean_rate(),
                TraceFile::kPacketBytes * 1.5);
  }
}

TEST(TraceFile, ToTraceBinsPackets) {
  // 4 packets in [0,1s), 1 packet in [1s,2s).
  const TraceFile file{{0, 100, 200, 900, 1500}};
  const ThroughputTrace trace = file.to_trace(1.0);
  ASSERT_EQ(trace.num_segments(), 2u);
  EXPECT_DOUBLE_EQ(trace.rates()[0], 4.0 * TraceFile::kPacketBytes);
  EXPECT_DOUBLE_EQ(trace.rates()[1], 1.0 * TraceFile::kPacketBytes);
}

TEST(TraceFile, MeanRateBps) {
  // 1000 packets over one second.
  const ThroughputTrace trace{{12.0 * kMbps}, 1.0};
  const TraceFile file = TraceFile::from_trace(trace);
  EXPECT_NEAR(file.mean_rate_bps(), 12.0 * kMbps, 0.1 * kMbps);
}

/// --- ThroughputTrace property tests under random traces ---

TEST(TraceProperties, CapacityClampingAndMeanRateInvariants) {
  Rng rng{2024};
  for (int trial = 0; trial < 200; trial++) {
    const int n = static_cast<int>(rng.uniform_int(1, 50));
    const double dt = rng.uniform(0.1, 10.0);
    std::vector<double> rates;
    double lo = 1e18, hi = 0.0, sum = 0.0;
    for (int i = 0; i < n; i++) {
      const double rate = rng.uniform(0.0, 100.0) * kMbps;
      rates.push_back(rate);
      lo = std::min(lo, rate);
      hi = std::max(hi, rate);
      sum += rate;
    }
    const ThroughputTrace trace{rates, dt};

    // mean_rate is the arithmetic mean over equal-length segments and lies
    // within [min, max].
    EXPECT_NEAR(trace.mean_rate(), sum / n, 1e-6);
    EXPECT_GE(trace.mean_rate(), lo - 1e-9);
    EXPECT_LE(trace.mean_rate(), hi + 1e-9);

    // capacity_at clamps below zero and beyond the end.
    EXPECT_DOUBLE_EQ(trace.capacity_at(-rng.uniform(0.0, 1e6)),
                     rates.front());
    EXPECT_DOUBLE_EQ(trace.capacity_at(trace.duration() +
                                       rng.uniform(0.0, 1e6)),
                     rates.back());

    // Interior lookups return the exact segment value.
    const int probe = static_cast<int>(rng.uniform_int(0, n - 1));
    const double t = (probe + 0.5) * dt;
    EXPECT_DOUBLE_EQ(trace.capacity_at(t), rates[static_cast<size_t>(probe)]);
  }
}

}  // namespace
}  // namespace puffer::net
