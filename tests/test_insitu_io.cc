// Round-trip and corruption tests for the in-situ persistence layer
// (exp::save_ttp / try_load_ttp, exp::save_dataset / try_load_dataset): the
// campaign checkpoint embeds both formats, so a truncated or corrupt input
// must come back as nullopt — never a crash, an exception, or a huge
// allocation.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "exp/insitu.hh"
#include "test_helpers.hh"

namespace puffer::exp {
namespace {

using test::sample_dataset;
using test::small_ttp_config;

std::string serialized_ttp(const fugu::TtpModel& model) {
  std::ostringstream out{std::ios::binary};
  save_ttp(model, out);
  return out.str();
}

std::string serialized_dataset(const fugu::TtpDataset& dataset) {
  std::ostringstream out{std::ios::binary};
  save_dataset(dataset, out);
  return out.str();
}

TEST(TtpIo, StreamRoundTripIsExact) {
  const fugu::TtpConfig config = small_ttp_config();
  const fugu::TtpModel model{config, 77};
  std::istringstream in{serialized_ttp(model), std::ios::binary};
  const auto loaded = try_load_ttp(config, in);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->networks().size(), model.networks().size());
  for (size_t k = 0; k < model.networks().size(); k++) {
    EXPECT_EQ(model.networks()[k], loaded->networks()[k]);
  }
}

TEST(TtpIo, RejectsTruncationAtEveryBoundary) {
  const fugu::TtpConfig config = small_ttp_config();
  const std::string bytes = serialized_ttp(fugu::TtpModel{config, 78});
  // Cut inside the header, inside the first network, and one byte short.
  for (const size_t keep : {size_t{0}, size_t{4}, size_t{12}, bytes.size() / 2,
                            bytes.size() - 1}) {
    std::istringstream in{bytes.substr(0, keep), std::ios::binary};
    EXPECT_FALSE(try_load_ttp(config, in).has_value()) << "keep=" << keep;
  }
}

TEST(TtpIo, RejectsBadMagicAndGarbageBody) {
  const fugu::TtpConfig config = small_ttp_config();
  std::string bytes = serialized_ttp(fugu::TtpModel{config, 79});
  std::string flipped = bytes;
  flipped[0] = static_cast<char>(flipped[0] ^ 0x5a);
  {
    std::istringstream in{flipped, std::ios::binary};
    EXPECT_FALSE(try_load_ttp(config, in).has_value());
  }
  // Valid header, garbage where the first Mlp should start.
  std::string garbage = bytes.substr(0, 16);
  garbage += std::string(64, '\x42');
  {
    std::istringstream in{garbage, std::ios::binary};
    EXPECT_FALSE(try_load_ttp(config, in).has_value());
  }
}

TEST(TtpIo, RejectsImplausibleParameterCounts) {
  // Individually-plausible layer sizes whose product implies terabytes of
  // weights: the loader must reject the header outright instead of trying
  // (and possibly failing) to allocate.
  const fugu::TtpConfig config = small_ttp_config();
  std::ostringstream out{std::ios::binary};
  const auto put = [&out](const uint64_t v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(0x50545450);                       // "PTTP"
  put(static_cast<uint64_t>(config.horizon));
  put(0x50554d4c);                       // "PUML" — first network
  put(3);                                // depth
  put((1u << 20) - 1);                   // ~2^40 weights in the first layer
  put((1u << 20) - 1);
  put(21);
  std::istringstream in{out.str(), std::ios::binary};
  EXPECT_FALSE(try_load_ttp(config, in).has_value());
}

TEST(TtpIo, RejectsConfigMismatch) {
  const fugu::TtpConfig saved = small_ttp_config();
  const std::string bytes = serialized_ttp(fugu::TtpModel{saved, 80});

  fugu::TtpConfig other_horizon = saved;
  other_horizon.horizon = 3;
  {
    std::istringstream in{bytes, std::ios::binary};
    EXPECT_FALSE(try_load_ttp(other_horizon, in).has_value());
  }
  fugu::TtpConfig other_arch = saved;
  other_arch.hidden_layers = {8, 8};
  {
    std::istringstream in{bytes, std::ios::binary};
    EXPECT_FALSE(try_load_ttp(other_arch, in).has_value());
  }
}

TEST(TtpIo, MissingFileYieldsNullopt) {
  EXPECT_FALSE(try_load_ttp(small_ttp_config(), "/no/such/directory/model.bin")
                   .has_value());
}

TEST(DatasetIo, StreamRoundTripIsExact) {
  const fugu::TtpDataset dataset = sample_dataset();
  std::istringstream in{serialized_dataset(dataset), std::ios::binary};
  const auto loaded = try_load_dataset(in);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), dataset.size());
  for (size_t s = 0; s < dataset.size(); s++) {
    EXPECT_EQ((*loaded)[s].day, dataset[s].day);
    ASSERT_EQ((*loaded)[s].chunks.size(), dataset[s].chunks.size());
    for (size_t c = 0; c < dataset[s].chunks.size(); c++) {
      const fugu::ChunkLog& a = dataset[s].chunks[c];
      const fugu::ChunkLog& b = (*loaded)[s].chunks[c];
      EXPECT_EQ(a.size_mb, b.size_mb);
      EXPECT_EQ(a.tx_time_s, b.tx_time_s);
      EXPECT_EQ(a.tcp_at_send.cwnd_pkts, b.tcp_at_send.cwnd_pkts);
      EXPECT_EQ(a.tcp_at_send.in_flight_pkts, b.tcp_at_send.in_flight_pkts);
      EXPECT_EQ(a.tcp_at_send.min_rtt_s, b.tcp_at_send.min_rtt_s);
      EXPECT_EQ(a.tcp_at_send.srtt_s, b.tcp_at_send.srtt_s);
      EXPECT_EQ(a.tcp_at_send.delivery_rate_bps,
                b.tcp_at_send.delivery_rate_bps);
    }
  }
}

TEST(DatasetIo, RejectsTruncationAtEveryBoundary) {
  const std::string bytes = serialized_dataset(sample_dataset());
  for (const size_t keep : {size_t{0}, size_t{8}, size_t{20}, bytes.size() / 2,
                            bytes.size() - 1}) {
    std::istringstream in{bytes.substr(0, keep), std::ios::binary};
    EXPECT_FALSE(try_load_dataset(in).has_value()) << "keep=" << keep;
  }
}

TEST(DatasetIo, RejectsBadMagic) {
  std::string bytes = serialized_dataset(sample_dataset());
  bytes[0] = static_cast<char>(bytes[0] ^ 0x5a);
  std::istringstream in{bytes, std::ios::binary};
  EXPECT_FALSE(try_load_dataset(in).has_value());
}

TEST(DatasetIo, HugeClaimedCountsFailFastWithoutAllocating) {
  // A corrupt header claiming 2^40 streams must be rejected by the payload
  // reads hitting EOF — not honored by a reservation of terabytes.
  const std::string valid = serialized_dataset(sample_dataset());
  std::string bytes = valid.substr(0, 8);  // keep the magic
  const uint64_t huge = uint64_t{1} << 40;
  bytes.append(reinterpret_cast<const char*>(&huge), sizeof(huge));
  std::istringstream in{bytes, std::ios::binary};
  EXPECT_FALSE(try_load_dataset(in).has_value());
}

TEST(DatasetIo, MissingFileYieldsNullopt) {
  EXPECT_FALSE(try_load_dataset("/no/such/directory/data.bin").has_value());
}

TEST(DatasetIo, EmptyDatasetRoundTrips) {
  std::istringstream in{serialized_dataset(fugu::TtpDataset{}),
                        std::ios::binary};
  const auto loaded = try_load_dataset(in);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->empty());
}

}  // namespace
}  // namespace puffer::exp
