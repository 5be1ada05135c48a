#ifndef PUFFER_TESTS_TEST_HELPERS_HH
#define PUFFER_TESTS_TEST_HELPERS_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "abr/abr.hh"
#include "exp/session_task.hh"
#include "exp/trial.hh"
#include "fugu/dataset.hh"
#include "fugu/ttp.hh"
#include "media/ladder.hh"
#include "media/vbr_source.hh"
#include "net/scenario.hh"
#include "nn/serialize.hh"
#include "obs/metrics.hh"
#include "util/require.hh"
#include "util/rng.hh"
#include "util/simd.hh"

namespace puffer::test {

/// A deterministic chunk menu whose rung sizes follow the nominal ladder
/// exactly and whose SSIM grows logarithmically — handy for controller tests
/// that need known numbers.
inline media::ChunkOptions make_menu(const int64_t index,
                                     const double size_scale = 1.0) {
  media::ChunkOptions menu;
  menu.chunk_index = index;
  for (int r = 0; r < media::kNumRungs; r++) {
    const auto& rung = media::default_ladder()[static_cast<size_t>(r)];
    media::ChunkVersion v;
    v.rung = r;
    v.size_bytes = static_cast<int64_t>(
        static_cast<double>(media::nominal_chunk_bytes(rung)) * size_scale);
    v.ssim_db = 12.9 + 2.41 * std::log(rung.nominal_bitrate_mbps);
    menu.versions[static_cast<size_t>(r)] = v;
  }
  return menu;
}

inline std::vector<media::ChunkOptions> make_lookahead(const int n,
                                                       const double scale = 1.0) {
  std::vector<media::ChunkOptions> lookahead;
  for (int i = 0; i < n; i++) {
    lookahead.push_back(make_menu(i, scale));
  }
  return lookahead;
}

/// Feed a predictor/ABR a history of identical transfers at a given
/// throughput (bytes/s).
inline abr::ChunkRecord record_at_throughput(const int64_t index,
                                             const double size_bytes,
                                             const double throughput_bps) {
  abr::ChunkRecord record;
  record.chunk_index = index;
  record.rung = 3;
  record.size_bytes = static_cast<int64_t>(size_bytes);
  record.ssim_db = 14.0;
  record.transmission_time_s = size_bytes / throughput_bps;
  return record;
}

/// Forces every SIMD dispatcher onto its portable path for the guard's
/// scope, and restores SIMD dispatch even when an assertion fires.
struct ForcePortableGuard {
  ForcePortableGuard() { util::set_force_portable(true); }
  ~ForcePortableGuard() { util::set_force_portable(false); }
  ForcePortableGuard(const ForcePortableGuard&) = delete;
  ForcePortableGuard& operator=(const ForcePortableGuard&) = delete;
};

/// Hash of a network's serialized architecture and parameters: pins what
/// a training run produced, bit for bit.
inline uint64_t mlp_hash(const nn::Mlp& net) {
  std::ostringstream bytes;
  nn::save_mlp(net, bytes);
  return stable_hash(bytes.str());
}

/// A counter's or gauge's value in `snapshot`. A name that is absent fails
/// the test (and reads -1), so a deleted or renamed metric cannot pass as 0.
inline int64_t metric_value(const obs::MetricSnapshot& snapshot,
                            const std::string& name) {
  const obs::MetricSnapshot::Metric* metric = snapshot.find(name);
  if (metric == nullptr) {
    ADD_FAILURE() << "no metric named '" << name << "'";
    return -1;
  }
  return metric->value;
}

/// Run `action` and expect a RequirementError whose message contains every
/// one of `fragments` (the offending field, where it came from).
template <typename Action>
void expect_rejected(Action&& action,
                     const std::initializer_list<std::string_view> fragments) {
  try {
    action();
    ADD_FAILURE() << "expected a RequirementError";
  } catch (const RequirementError& error) {
    const std::string_view message = error.what();
    for (const std::string_view fragment : fragments) {
      EXPECT_NE(message.find(fragment), std::string_view::npos)
          << "'" << fragment << "' missing from: " << message;
    }
  }
}

/// A small TTP architecture (history 4, one hidden layer of 8, horizon 2)
/// for the file-format tests: cheap to build, and pinned byte hashes
/// depend on it.
inline fugu::TtpConfig small_ttp_config() {
  fugu::TtpConfig config;
  config.history = 4;
  config.hidden_layers = {8};
  config.horizon = 2;
  return config;
}

/// Three days of four chunks each, with values exact in binary so a round
/// trip through any format can be compared bit for bit.
inline fugu::TtpDataset sample_dataset() {
  fugu::TtpDataset dataset;
  for (int day = 0; day < 3; day++) {
    fugu::StreamLog stream;
    stream.day = day;
    for (int c = 0; c < 4; c++) {
      fugu::ChunkLog chunk;
      chunk.size_mb = 0.25 * (c + 1) + day;
      chunk.tx_time_s = 0.125 * (c + 1);
      chunk.tcp_at_send.cwnd_pkts = 10.0 + c;
      chunk.tcp_at_send.in_flight_pkts = 5.5 + c;
      chunk.tcp_at_send.min_rtt_s = 0.04;
      chunk.tcp_at_send.srtt_s = 0.0625 + 0.001 * day;
      chunk.tcp_at_send.delivery_rate_bps = 1e6 * (day + 1) + 0.375;
      stream.chunks.push_back(chunk);
    }
    dataset.push_back(stream);
  }
  return dataset;
}

/// Bitwise double equality: trial runs promise *bit-identical* results,
/// stronger than operator== (which, e.g., treats -0.0 == 0.0).
inline void expect_same_bits(const double a, const double b) {
  EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b));
}

/// Every figure, CONSORT count, session duration and telemetry log of two
/// trials, compared bit for bit.
inline void expect_identical(const exp::TrialResult& a,
                             const exp::TrialResult& b) {
  ASSERT_EQ(a.schemes.size(), b.schemes.size());
  for (size_t s = 0; s < a.schemes.size(); s++) {
    const exp::SchemeResult& x = a.schemes[s];
    const exp::SchemeResult& y = b.schemes[s];
    EXPECT_EQ(x.scheme, y.scheme);

    EXPECT_EQ(x.consort.sessions, y.consort.sessions);
    EXPECT_EQ(x.consort.streams, y.consort.streams);
    EXPECT_EQ(x.consort.never_began, y.consort.never_began);
    EXPECT_EQ(x.consort.under_min_watch, y.consort.under_min_watch);
    EXPECT_EQ(x.consort.decoder_failure, y.consort.decoder_failure);
    EXPECT_EQ(x.consort.truncated, y.consort.truncated);
    EXPECT_EQ(x.consort.considered, y.consort.considered);

    ASSERT_EQ(x.considered.size(), y.considered.size());
    for (size_t i = 0; i < x.considered.size(); i++) {
      const stats::StreamFigures& p = x.considered[i];
      const stats::StreamFigures& q = y.considered[i];
      expect_same_bits(p.watch_time_s, q.watch_time_s);
      expect_same_bits(p.stall_time_s, q.stall_time_s);
      expect_same_bits(p.startup_delay_s, q.startup_delay_s);
      expect_same_bits(p.ssim_mean_db, q.ssim_mean_db);
      expect_same_bits(p.ssim_variation_db, q.ssim_variation_db);
      expect_same_bits(p.first_chunk_ssim_db, q.first_chunk_ssim_db);
      expect_same_bits(p.mean_bitrate_mbps, q.mean_bitrate_mbps);
      expect_same_bits(p.mean_delivery_rate_mbps, q.mean_delivery_rate_mbps);
    }

    ASSERT_EQ(x.session_durations_s.size(), y.session_durations_s.size());
    for (size_t i = 0; i < x.session_durations_s.size(); i++) {
      expect_same_bits(x.session_durations_s[i], y.session_durations_s[i]);
    }

    ASSERT_EQ(x.logs.size(), y.logs.size());
    for (size_t i = 0; i < x.logs.size(); i++) {
      EXPECT_EQ(x.logs[i].day, y.logs[i].day);
      ASSERT_EQ(x.logs[i].chunks.size(), y.logs[i].chunks.size());
      for (size_t c = 0; c < x.logs[i].chunks.size(); c++) {
        const fugu::ChunkLog& p = x.logs[i].chunks[c];
        const fugu::ChunkLog& q = y.logs[i].chunks[c];
        expect_same_bits(p.size_mb, q.size_mb);
        expect_same_bits(p.tx_time_s, q.tx_time_s);
        expect_same_bits(p.tcp_at_send.cwnd_pkts, q.tcp_at_send.cwnd_pkts);
        expect_same_bits(p.tcp_at_send.in_flight_pkts,
                         q.tcp_at_send.in_flight_pkts);
        expect_same_bits(p.tcp_at_send.min_rtt_s, q.tcp_at_send.min_rtt_s);
        expect_same_bits(p.tcp_at_send.srtt_s, q.tcp_at_send.srtt_s);
        expect_same_bits(p.tcp_at_send.delivery_rate_bps,
                         q.tcp_at_send.delivery_rate_bps);
      }
    }
  }
}

/// Drive one session to completion on the calling thread, with no engine.
inline void run_session(const exp::SessionPlan& plan,
                        abr::AbrAlgorithm& algo,
                        const exp::TrialConfig& config,
                        exp::SchemeResult& result) {
  exp::SessionTask task{plan, algo, config, result};
  while (task.prepare() == sim::FleetTask::Step::kDecision) {
    task.finish_chunk();
  }
}

/// Serial oracle for the trial engine: draws each session plan in
/// session-index order and drives it to completion with run_session on
/// the calling thread — no fleet engine, shards, pools or merge. RCT
/// mode hands each plan to one blindly drawn scheme; paired mode replays it
/// for every scheme.
inline exp::TrialResult run_sessions_in_order(
    const exp::TrialConfig& config, const exp::SchemeFactory& factory) {
  const auto num_schemes = static_cast<int64_t>(config.schemes.size());
  exp::TrialResult trial;
  std::vector<std::unique_ptr<abr::AbrAlgorithm>> algorithms;
  for (const std::string& name : config.schemes) {
    trial.schemes.emplace_back().scheme = name;
    algorithms.push_back(factory(name));
  }
  const std::unique_ptr<net::PathGenerator> paths =
      net::make_path_generator(config.scenario);
  const sim::UserModel users{config.seed};
  const Rng master{config.seed};
  const int64_t plans = std::max(0, config.sessions_per_scheme) *
                        (config.paired_paths ? 1 : num_schemes);
  for (int64_t p = 0; p < plans; p++) {
    Rng rng = master.split(static_cast<uint64_t>(p));
    const exp::SessionPlan plan = exp::make_session_plan(rng, users, *paths);
    const auto run = [&](const int64_t a) {
      run_session(plan, *algorithms[static_cast<size_t>(a)], config,
                  trial.schemes[static_cast<size_t>(a)]);
    };
    if (!config.paired_paths) {
      run(rng.uniform_int(0, num_schemes - 1));
      continue;
    }
    for (int64_t a = 0; a < num_schemes; a++) {
      run(a);
    }
  }
  return trial;
}

}  // namespace puffer::test

#endif  // PUFFER_TESTS_TEST_HELPERS_HH
