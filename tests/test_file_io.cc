// The file layer (util/file_io.hh) and the on-disk formats written through
// it. Each binary format (the Mlp model file, the TTP and dataset blocks,
// the trial cache and the campaign checkpoint) saves a fixed input to a
// pinned stable_hash and survives save -> load -> save with equal bytes, so
// any change to how a file is written shows here before it invalidates a
// cache or a checkpoint on disk. Every writer that takes a path fails
// loudly on a full disk (/dev/full), and damaged cache entries are misses.

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>

#include "exp/campaign.hh"
#include "exp/insitu.hh"
#include "exp/trial_cache.hh"
#include "net/trace_file.hh"
#include "nn/serialize.hh"
#include "obs/trace.hh"
#include "test_helpers.hh"
#include "util/file_io.hh"
#include "util/rng.hh"

namespace puffer {
namespace {

using test::sample_dataset;
using test::small_ttp_config;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/file_io_" + name;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.is_open()) << path;
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

exp::TrialResult sample_trial() {
  exp::TrialResult trial;
  for (int s = 0; s < 2; s++) {
    exp::SchemeResult scheme;
    scheme.scheme = s == 0 ? "BBA" : "MPC-HM";
    for (int i = 0; i < 3; i++) {
      stats::StreamFigures f;
      f.watch_time_s = 30.0 * (i + 1) + s;
      f.stall_time_s = 0.5 * i;
      f.startup_delay_s = 0.75 + 0.125 * s;
      f.ssim_mean_db = 15.5 + i;
      f.ssim_variation_db = 0.25 * i;
      f.first_chunk_ssim_db = 14.0 + s;
      f.mean_bitrate_mbps = 2.5 + i;
      f.mean_delivery_rate_mbps = 4.0 * (i + 1);
      scheme.considered.push_back(f);
      scheme.session_durations_s.push_back(60.0 * (i + 1) + s);
    }
    scheme.consort = {5 + s, 4, 1, 0, 0, 1, 3};
    trial.schemes.push_back(scheme);
  }
  return trial;
}

TEST(FormatPins, MlpFile) {
  const std::string path = temp_path("mlp.bin");
  const nn::Mlp net{{6, 5, 3}, /*seed=*/41};
  nn::save_mlp_file(net, path);
  const std::string bytes = file_bytes(path);
  EXPECT_EQ(stable_hash(bytes), 13895996358584289828u);

  const auto loaded = nn::try_load_mlp_file(path);
  ASSERT_TRUE(loaded.has_value());
  nn::save_mlp_file(*loaded, path);
  EXPECT_EQ(file_bytes(path), bytes);
}

TEST(FormatPins, TtpFile) {
  const std::string path = temp_path("ttp.bin");
  const fugu::TtpConfig config = small_ttp_config();
  exp::save_ttp(fugu::TtpModel{config, /*seed=*/42}, path);
  const std::string bytes = file_bytes(path);
  EXPECT_EQ(stable_hash(bytes), 1119304709419735657u);

  const auto loaded = exp::try_load_ttp(config, path);
  ASSERT_TRUE(loaded.has_value());
  exp::save_ttp(*loaded, path);
  EXPECT_EQ(file_bytes(path), bytes);
  std::ostringstream stream{std::ios::binary};
  exp::save_ttp(*loaded, stream);
  EXPECT_EQ(stream.str(), bytes);
}

TEST(FormatPins, DatasetFile) {
  const std::string path = temp_path("dataset.bin");
  exp::save_dataset(sample_dataset(), path);
  const std::string bytes = file_bytes(path);
  EXPECT_EQ(stable_hash(bytes), 18101078533031702192u);

  const auto loaded = exp::try_load_dataset(path);
  ASSERT_TRUE(loaded.has_value());
  exp::save_dataset(*loaded, path);
  EXPECT_EQ(file_bytes(path), bytes);
  std::ostringstream stream{std::ios::binary};
  exp::save_dataset(*loaded, stream);
  EXPECT_EQ(stream.str(), bytes);
}

TEST(FormatPins, TrialCacheEntry) {
  const std::string path = temp_path("trial.bin");
  exp::save_trial(sample_trial(), path);
  const std::string bytes = file_bytes(path);
  EXPECT_EQ(stable_hash(bytes), 6009512550020302621u);

  const auto loaded = exp::try_load_trial(path);
  ASSERT_TRUE(loaded.has_value());
  exp::save_trial(*loaded, path);
  EXPECT_EQ(file_bytes(path), bytes);
}

/// Two days, one classical arm and one nightly learner: every block the
/// checkpoint carries (day stats, telemetry window, a trained model) is
/// non-empty.
exp::CampaignConfig pinned_campaign(const std::string& dir) {
  exp::CampaignArm bba;
  bba.name = "bba";
  exp::CampaignArm learner;
  learner.name = "fugu";
  learner.scheme = "Fugu";
  learner.retrain = true;
  learner.ttp.history = 4;
  learner.ttp.hidden_layers = {8};
  learner.ttp.horizon = 1;
  learner.train.epochs = 1;
  learner.train.batch_size = 64;
  learner.train.max_examples_per_step = 400;

  exp::CampaignConfig config;
  config.arms = {bba, learner};
  config.phases = {exp::CampaignPhase{net::ScenarioSpec{"puffer"}, 2}};
  config.telemetry_sessions_per_day = 6;
  config.eval_sessions_per_day = 3;
  config.holdout_sessions_per_day = 3;
  config.seed = 23;
  config.num_threads = 2;
  config.stream.max_stream_chunks = 40;
  config.checkpoint_dir = dir;
  std::filesystem::remove_all(dir);
  return config;
}

TEST(FormatPins, CampaignCheckpoint) {
  // Uninterrupted: both days in one object.
  const exp::CampaignConfig whole = pinned_campaign(temp_path("ckpt_whole"));
  exp::Campaign{whole}.run();
  const std::string bytes =
      file_bytes(whole.checkpoint_dir + "/campaign.ckpt");
  EXPECT_EQ(stable_hash(bytes), 3726223474038497136u);

  // Killed after day 0 and resumed: the second checkpoint re-saves the
  // restored day stats, telemetry and model, so it matches byte for byte
  // only if restore -> save is exact.
  const exp::CampaignConfig resumed =
      pinned_campaign(temp_path("ckpt_resumed"));
  exp::Campaign{resumed}.run(/*max_days=*/1);
  exp::Campaign{resumed}.run();
  EXPECT_EQ(file_bytes(resumed.checkpoint_dir + "/campaign.ckpt"), bytes);
}

// --- the helpers -----------------------------------------------------------

TEST(WriteFile, TruncatesAndWritesExactBytes) {
  const std::string path = temp_path("write_file.txt");
  write_file(path, [](std::ostream& out) { out << "a longer first body"; });
  write_file(path, [](std::ostream& out) { out << "short\n"; });
  EXPECT_EQ(file_bytes(path), "short\n");
}

TEST(WriteFile, UnopenablePathThrowsNamingIt) {
  test::expect_rejected(
      [] {
        write_file("/no/such/directory/out.bin",
                   [](std::ostream& out) { out << "x"; });
      },
      {"/no/such/directory/out.bin"});
}

TEST(TryRead, MapsTheMissFamilyToNullopt) {
  std::istringstream in{"bytes"};
  EXPECT_EQ(try_read(in, [](std::istream&) { return 7; }), 7);
  EXPECT_FALSE(try_read(in, [](std::istream&) -> int {
                 throw RequirementError("truncated");
               }).has_value());
  EXPECT_FALSE(try_read(in, [](std::istream&) -> int {
                 throw std::bad_alloc();
               }).has_value());
  EXPECT_FALSE(try_read(in, [](std::istream&) -> int {
                 throw std::length_error("vector");
               }).has_value());
  // Anything else is a bug in the reader, not a damaged file.
  EXPECT_THROW(try_read(in,
                        [](std::istream&) -> int {
                          throw std::runtime_error("bug");
                        }),
               std::runtime_error);
}

TEST(TryReadFile, MissingFileIsAMiss) {
  bool called = false;
  const auto result =
      try_read_file("/no/such/directory/in.bin", [&called](std::istream&) {
        called = true;
        return 1;
      });
  EXPECT_FALSE(result.has_value());
  EXPECT_FALSE(called);
}

// --- damaged cache entries ----------------------------------------------------

std::string u64_bytes(const std::initializer_list<uint64_t> values) {
  std::string bytes;
  for (const uint64_t v : values) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  return bytes;
}

TEST(TrialCache, DamagedEntriesAreMisses) {
  const std::string bytes = [] {
    const std::string path = temp_path("trial_damaged_src.bin");
    exp::save_trial(sample_trial(), path);
    return file_bytes(path);
  }();
  const std::string path = temp_path("trial_damaged.bin");
  for (const size_t keep : {size_t{0}, size_t{8}, size_t{20}, bytes.size() / 2,
                            bytes.size() - 1}) {
    write_file(path, [&](std::ostream& out) { out << bytes.substr(0, keep); });
    EXPECT_FALSE(exp::try_load_trial(path).has_value()) << "keep=" << keep;
  }
  std::string flipped = bytes;
  flipped[0] = static_cast<char>(flipped[0] ^ 0x5a);
  write_file(path, [&](std::ostream& out) { out << flipped; });
  EXPECT_FALSE(exp::try_load_trial(path).has_value());
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

/// Exit status of loading the trial-cache entry at `path` with the address
/// space capped 256 MiB above what the process already maps: 0 for a miss,
/// 1 for a hit, 2 when the cap cannot be set. A bad_alloc that escapes the
/// loader aborts instead.
[[noreturn]] void load_trial_under_address_cap(const std::string& path) {
  std::ifstream statm{"/proc/self/statm"};
  uint64_t pages = 0;
  statm >> pages;
  const rlim_t limit = static_cast<rlim_t>(pages * sysconf(_SC_PAGESIZE)) +
                       (rlim_t{256} << 20);
  const rlimit cap{limit, limit};
  if (pages == 0 || setrlimit(RLIMIT_AS, &cap) != 0) {
    std::exit(2);
  }
  std::exit(exp::try_load_trial(path).has_value() ? 1 : 0);
}

TEST(TrialCache, HugeFigureCountIsAMissWithoutReservingIt) {
  // 40 bytes: magic, one scheme, an empty name, 2^24 - 1 figures (within
  // the plausibility bound), and the first field of the first figure.
  const std::string path = temp_path("trial_huge_count.bin");
  write_file(path, [](std::ostream& out) {
    out << u64_bytes({0x5054524c, 1, 0, (uint64_t{1} << 24) - 1, 0});
  });
  ASSERT_EQ(std::filesystem::file_size(path), 40u);
  EXPECT_FALSE(exp::try_load_trial(path).has_value());

  // Honouring the count would reserve 1 GiB. Under an address-space limit
  // far below that, the entry must still read as a miss rather than escape
  // as bad_alloc. Sanitizers reserve terabytes of shadow memory, so the
  // limit cannot apply there.
  if (kSanitized) {
    GTEST_SKIP() << "address-space limits do not apply under sanitizers";
  }
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(load_trial_under_address_cap(path),
              ::testing::ExitedWithCode(0), "");
}

// --- full disk ----------------------------------------------------------------

/// Writes to /dev/full open fine and fail with ENOSPC once flushed, so a
/// writer that checks its stream before the final flush reports success.
class FullDisk : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!std::filesystem::exists(kPath)) {
      GTEST_SKIP() << kPath << " is absent";
    }
  }
  static constexpr const char* kPath = "/dev/full";
};

TEST_F(FullDisk, WriteFileThrows) {
  test::expect_rejected(
      [] { write_file(kPath, [](std::ostream& out) { out << "x"; }); },
      {kPath});
}

TEST_F(FullDisk, SaveTrialThrows) {
  test::expect_rejected([] { exp::save_trial(sample_trial(), kPath); },
                        {kPath});
}

TEST_F(FullDisk, SaveMlpFileThrows) {
  test::expect_rejected(
      [] { nn::save_mlp_file(nn::Mlp{{2, 2}, /*seed=*/1}, kPath); }, {kPath});
}

TEST_F(FullDisk, TraceFileSaveThrows) {
  test::expect_rejected([] { net::TraceFile{{1, 2, 3}}.save(kPath); },
                        {kPath});
}

TEST_F(FullDisk, TraceWriterReturnsFalse) {
  obs::TraceWriter trace;
  trace.counter(obs::kSimTracePid, "load", 0.0, 1.0);
  EXPECT_FALSE(trace.write_file(kPath));
}

TEST_F(FullDisk, SaveTtpThrows) {
  test::expect_rejected(
      [] {
        exp::save_ttp(fugu::TtpModel{small_ttp_config(), /*seed=*/3}, kPath);
      },
      {kPath});
}

TEST_F(FullDisk, SaveDatasetThrows) {
  test::expect_rejected([] { exp::save_dataset(sample_dataset(), kPath); },
                        {kPath});
}

}  // namespace
}  // namespace puffer
