#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <sstream>
#include <string>

#include "fugu/batch_ttp.hh"
#include "fugu/dataset.hh"
#include "fugu/fugu.hh"
#include "fugu/ttp.hh"
#include "fugu/ttp_trainer.hh"
#include "nn/serialize.hh"
#include "oracles/ttp_reference.hh"
#include "test_helpers.hh"
#include "util/require.hh"

namespace puffer::fugu {
namespace {

TEST(TtpBins, BoundariesMatchPaper) {
  // [0, 0.25) -> 0; [0.25, 0.75) -> 1; ...; [9.75, inf) -> 20.
  EXPECT_EQ(ttp_bin_of(0.0), 0);
  EXPECT_EQ(ttp_bin_of(0.249), 0);
  EXPECT_EQ(ttp_bin_of(0.25), 1);
  EXPECT_EQ(ttp_bin_of(0.74), 1);
  EXPECT_EQ(ttp_bin_of(0.75), 2);
  EXPECT_EQ(ttp_bin_of(9.74), 19);
  EXPECT_EQ(ttp_bin_of(9.75), 20);
  EXPECT_EQ(ttp_bin_of(1000.0), 20);
}

TEST(TtpBins, MidpointsInsideTheirBins) {
  for (int bin = 0; bin < kTtpBins; bin++) {
    const double mid = ttp_bin_midpoint(bin);
    EXPECT_EQ(ttp_bin_of(mid), bin) << "bin " << bin << " midpoint " << mid;
  }
}

TEST(TtpBins, MidpointValues) {
  EXPECT_DOUBLE_EQ(ttp_bin_midpoint(0), 0.125);
  EXPECT_DOUBLE_EQ(ttp_bin_midpoint(1), 0.5);
  EXPECT_DOUBLE_EQ(ttp_bin_midpoint(19), 9.5);
  EXPECT_DOUBLE_EQ(ttp_bin_midpoint(20), 10.5);
  // [0.25 + 0.5(b-1), 0.25 + 0.5b) has midpoint 0.5b, exactly.
  for (int bin = 1; bin < kTtpBins - 1; bin++) {
    EXPECT_EQ(ttp_bin_midpoint(bin), 0.5 * bin) << "bin " << bin;
  }
}

TEST(ThroughputBins, MonotoneAndInvertible) {
  int prev = -1;
  for (double mbps = 0.05; mbps < 500.0; mbps *= 1.6) {
    const int bin = throughput_bin_of(mbps * 1e6 / 8.0);
    EXPECT_GE(bin, prev);
    prev = bin;
  }
  for (int bin = 0; bin < kTtpBins; bin++) {
    EXPECT_EQ(throughput_bin_of(throughput_bin_midpoint_bps(bin)), bin);
  }
}

TEST(TtpConfig, InputDimensions) {
  TtpConfig full;
  EXPECT_EQ(full.input_dim(), 8 + 8 + 5 + 1);  // = 22, paper section 4.5
  TtpConfig no_tcp = full;
  no_tcp.use_tcp_info = false;
  EXPECT_EQ(no_tcp.input_dim(), 17);
  TtpConfig throughput = full;
  throughput.target = TtpTarget::kThroughput;
  EXPECT_EQ(throughput.input_dim(), 21);  // no proposed-size input
  TtpConfig short_history = full;
  short_history.history = 2;
  EXPECT_EQ(short_history.input_dim(), 2 + 2 + 5 + 1);
}

TEST(TtpFeaturize, PaddingAndOrdering) {
  const TtpConfig config;
  TtpHistory history;
  history.record(1.0, 0.5, config.history);
  history.record(2.0, 1.5, config.history);
  net::TcpInfo tcp;
  tcp.cwnd_pkts = 50.0;
  tcp.delivery_rate_bps = 1.25e6;
  std::vector<float> features;
  ttp_featurize_into(config, history, tcp, 3'000'000, features);
  ASSERT_EQ(features.size(), 22u);
  // Sizes oldest-first, left padded: slots 0..5 zero, 6 -> 1.0 MB, 7 -> 2.0.
  EXPECT_FLOAT_EQ(features[5], 0.0f);
  EXPECT_FLOAT_EQ(features[6], 1.0f);
  EXPECT_FLOAT_EQ(features[7], 2.0f);
  // Times at slots 8..15: last two are 0.5 and 1.5.
  EXPECT_FLOAT_EQ(features[14], 0.5f);
  EXPECT_FLOAT_EQ(features[15], 1.5f);
  // tcp_info: cwnd/100.
  EXPECT_FLOAT_EQ(features[16], 0.5f);
  // delivery rate / 1.25e6.
  EXPECT_FLOAT_EQ(features[20], 1.0f);
  // Proposed size in MB is last.
  EXPECT_FLOAT_EQ(features[21], 3.0f);
}

TEST(TtpHistory, BoundedByMax) {
  TtpHistory history;
  for (int i = 0; i < 30; i++) {
    history.record(1.0, 1.0, 8);
  }
  EXPECT_EQ(history.sizes_mb.size(), 8u);
}

TEST(TtpModel, OneNetworkPerHorizonStep) {
  const TtpConfig config;
  const TtpModel model{config, 3};
  EXPECT_EQ(model.networks().size(), static_cast<size_t>(config.horizon));
  for (const auto& net : model.networks()) {
    EXPECT_EQ(net.input_size(), 22u);
    EXPECT_EQ(net.output_size(), static_cast<size_t>(kTtpBins));
    // Paper: two hidden layers with 64 neurons each.
    ASSERT_EQ(net.layer_sizes().size(), 4u);
    EXPECT_EQ(net.layer_sizes()[1], 64u);
    EXPECT_EQ(net.layer_sizes()[2], 64u);
  }
}

TEST(TtpModel, PredictTxTimeIsDistribution) {
  const TtpModel model{TtpConfig{}, 4};
  TtpHistory history;
  net::TcpInfo tcp;
  const auto dist =
      oracle::predict_tx_time(model, 0, history, tcp, 1'000'000);
  ASSERT_EQ(dist.size(), static_cast<size_t>(kTtpBins));
  double total = 0.0;
  for (const auto& outcome : dist) {
    EXPECT_GE(outcome.probability, 0.0);
    total += outcome.probability;
  }
  EXPECT_NEAR(total, 1.0, 1e-4);
}

TEST(TtpModel, ThroughputTargetScalesTimeWithSize) {
  TtpConfig config;
  config.target = TtpTarget::kThroughput;
  const TtpModel model{config, 5};
  TtpHistory history;
  net::TcpInfo tcp;
  const auto small =
      oracle::predict_tx_time(model, 0, history, tcp, 500'000);
  const auto big = oracle::predict_tx_time(model, 0, history, tcp, 5'000'000);
  // Same bin probabilities (size is not an input), but times scale ~10x in
  // the unclamped middle bins.
  for (size_t b = 8; b <= 16; b++) {
    EXPECT_NEAR(big[b].time_s / small[b].time_s, 10.0, 0.1);
    EXPECT_NEAR(big[b].probability, small[b].probability, 1e-6);
  }
}

StreamLog synthetic_stream(Rng& rng, const int chunks, const double rate_mbps,
                           const int day = 0,
                           const double hidden_slowdown = 1.0) {
  StreamLog log;
  log.day = day;
  const double rate_bps = rate_mbps * 1e6 / 8.0;
  for (int i = 0; i < chunks; i++) {
    ChunkLog chunk;
    chunk.size_mb = rng.uniform(0.05, 1.4);
    // hidden_slowdown models environment drift that is NOT visible in any
    // input feature (delivery_rate still reports the nominal rate).
    chunk.tx_time_s = hidden_slowdown * chunk.size_mb * 1e6 / rate_bps;
    chunk.tcp_at_send.delivery_rate_bps = rate_bps;
    chunk.tcp_at_send.cwnd_pkts = 40.0;
    chunk.tcp_at_send.in_flight_pkts = 10.0;
    chunk.tcp_at_send.min_rtt_s = 0.04;
    chunk.tcp_at_send.srtt_s = 0.05;
    log.chunks.push_back(chunk);
  }
  return log;
}

/// A dataset whose transmission times are exactly size/delivery_rate, with
/// per-stream rates spanning a wide range: learnable from (size, tcp_info).
TtpDataset synthetic_dataset(const uint64_t seed, const int streams,
                             const int chunks_per_stream = 40) {
  Rng rng{seed};
  TtpDataset dataset;
  for (int s = 0; s < streams; s++) {
    const double rate_mbps = std::pow(10.0, rng.uniform(-0.3, 1.3));
    dataset.push_back(synthetic_stream(rng, chunks_per_stream, rate_mbps));
  }
  return dataset;
}

TEST(TtpFeatureTable, AlignmentOfHistoryAndLabels) {
  Rng rng{6};
  TtpDataset dataset = {synthetic_stream(rng, 10, 8.0)};
  const TtpFeatureTable table{TtpConfig{}, dataset};
  ASSERT_EQ(table.rows(), 10u);
  ASSERT_EQ(table.example_rows(0).size(), 10u);
  std::vector<float> inputs(table.input_dim());
  // Row i's label must be the bin of chunk i's own transmission time.
  for (size_t i = 0; i < table.rows(); i++) {
    EXPECT_EQ(table.label(i, 0), ttp_bin_of(dataset[0].chunks[i].tx_time_s));
    // The proposed-size input (last) is chunk i's size.
    table.copy_inputs(i, 0, inputs.data());
    EXPECT_NEAR(inputs.back(), dataset[0].chunks[i].size_mb, 1e-5);
  }
  // Row 3's history must end with chunk 2's size.
  table.copy_inputs(3, 0, inputs.data());
  EXPECT_NEAR(inputs[7], dataset[0].chunks[2].size_mb, 1e-5);
  table.copy_inputs(0, 0, inputs.data());
  EXPECT_FLOAT_EQ(inputs[7], 0.0f);  // no history yet
}

TEST(TtpFeatureTable, FutureStepExamples) {
  Rng rng{7};
  TtpDataset dataset = {synthetic_stream(rng, 10, 8.0),
                        synthetic_stream(rng, 4, 8.0)};
  const TtpConfig config;
  const TtpFeatureTable table{config, dataset};
  // i + 2 < 10 in the first stream, i + 2 < 4 in the second.
  const std::vector<uint32_t> rows = table.example_rows(/*step=*/2);
  EXPECT_EQ(rows, (std::vector<uint32_t>{0, 1, 2, 3, 4, 5, 6, 7, 10, 11}));
  EXPECT_EQ(table.label(0, 2), ttp_bin_of(dataset[0].chunks[2].tx_time_s));

  // The step-2 example at chunk 1 is chunk 1's state proposing chunk 3's
  // size: exactly what featurizing it that way gives, bit for bit.
  TtpHistory history;
  history.record(dataset[0].chunks[0].size_mb, dataset[0].chunks[0].tx_time_s,
                 config.history);
  std::vector<float> expected;
  ttp_featurize_into(config, history, dataset[0].chunks[1].tcp_at_send,
                     static_cast<int64_t>(dataset[0].chunks[3].size_mb * 1e6),
                     expected);
  std::vector<float> inputs(table.input_dim());
  table.copy_inputs(1, 2, inputs.data());
  EXPECT_EQ(inputs, expected);
}

TEST(TtpFeatureTable, RecencyWeightsAndWindow) {
  Rng rng{8};
  TtpDataset dataset = {synthetic_stream(rng, 5, 8.0, /*day=*/0),
                        synthetic_stream(rng, 5, 8.0, /*day=*/3),
                        synthetic_stream(rng, 5, 8.0, /*day=*/4)};
  const TtpFeatureTable table{TtpConfig{}, dataset, /*current_day=*/3,
                              /*window_days=*/14, 0.5};
  // The day-4 stream is after the window; the day-0 one is 3 days old.
  ASSERT_EQ(table.rows(), 10u);
  EXPECT_NEAR(table.weight(0), 0.125f, 1e-5);
  EXPECT_NEAR(table.weight(5), 1.0f, 1e-5);
  const TtpFeatureTable recent{TtpConfig{}, dataset, 3, /*window_days=*/3,
                               0.5};
  EXPECT_EQ(recent.rows(), 5u);
}

TEST(TtpTraining, LossDecreasesAndBeatsChance) {
  const TtpDataset dataset = synthetic_dataset(9, 60);
  TtpConfig config;
  config.horizon = 1;
  const TtpTrainConfig train_config;  // defaults: 6 epochs
  Rng rng{10};
  TtpTrainReport report;
  const TtpModel model =
      train_ttp(config, dataset, 0, train_config, rng, nullptr, &report);
  ASSERT_EQ(report.loss_per_epoch.size(), 6u);
  EXPECT_LT(report.loss_per_epoch.back(), report.loss_per_epoch.front());
  // Uniform over 21 bins = ln 21 ~ 3.04 nats; the model must do much better.
  const TtpEvaluation eval = evaluate_ttp(model, synthetic_dataset(11, 20));
  EXPECT_LT(eval.cross_entropy, 2.0);
  EXPECT_GT(eval.top1_accuracy, 0.30);
  // The trained weights, bit for bit: a moved training constant (learning
  // rate, recency decay, Adam's moments) changes this hash.
  EXPECT_EQ(test::mlp_hash(model.networks()[0]), 2444146523535958860ULL);
}

/// What one full-horizon training run hands back, hashed: every step
/// network's bytes, the report, and the caller's next draw (training must
/// leave the caller's stream where it found the last shuffle).
struct TrainingPin {
  uint64_t networks = 0;
  uint64_t report = 0;
  uint64_t next_draw = 0;

  bool operator==(const TrainingPin&) const = default;
};

TrainingPin train_and_pin(const TtpConfig& config,
                          const TtpTrainConfig& train_config,
                          const int num_threads) {
  // 30 streams x 40 chunks over days 0-2: three recency weights.
  TtpDataset dataset = synthetic_dataset(30, 30);
  for (size_t s = 0; s < dataset.size(); s++) {
    dataset[s].day = static_cast<int>(s % 3);
  }
  Rng rng{31};
  TtpTrainReport report;
  const TtpModel model =
      train_ttp(config, dataset, /*current_day=*/2, train_config, rng, nullptr,
                &report, num_threads);
  std::string networks;
  for (const nn::Mlp& net : model.networks()) {
    networks += std::to_string(test::mlp_hash(net)) + ";";
  }
  std::string losses = std::to_string(report.examples_per_step) + ";";
  for (const double loss : report.loss_per_epoch) {
    losses += std::to_string(std::bit_cast<uint64_t>(loss)) + ";";
  }
  return {stable_hash(networks), stable_hash(losses), rng.engine()()};
}

/// The trainer, bit for bit, on all five step networks at 1, 2, 4 and 8
/// threads: both targets, and a cap of 1150 examples that truncates steps
/// 0-1 (1200 and 1170 examples) but not steps 2-4.
TEST(TtpTraining, EveryStepNetworkIsPinnedAtAnyThreadCount) {
  const TtpTrainConfig train{.epochs = 2, .batch_size = 64};
  TtpConfig throughput;
  throughput.target = TtpTarget::kThroughput;
  TtpTrainConfig capped = train;
  capped.max_examples_per_step = 1150;

  for (const int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    EXPECT_EQ(train_and_pin(TtpConfig{}, train, threads),
              (TrainingPin{1903123284910392838ULL, 6498098977201272363ULL,
                           10219769645572454987ULL}));
    EXPECT_EQ(train_and_pin(throughput, train, threads),
              (TrainingPin{13043704501254975948ULL, 7794782541875544141ULL,
                           10219769645572454987ULL}));
    EXPECT_EQ(train_and_pin(TtpConfig{}, capped, threads),
              (TrainingPin{9057663497613872282ULL, 12949721035150882564ULL,
                           16271660297312410432ULL}));
  }
}

/// Every step network's serialized bytes, concatenated in step order.
std::string network_bytes(const TtpModel& model) {
  std::ostringstream bytes;
  for (const nn::Mlp& net : model.networks()) {
    nn::save_mlp(net, bytes);
  }
  return bytes.str();
}

/// The trainer's jobs, run on one thread in reverse step order, hand back
/// what train_ttp does at 1 and 4 threads: every network's bytes, the same
/// report (losses compared exactly) and the caller's stream at the same
/// position. The cap truncates steps 0-1 only, so the steps differ in size.
TEST(TtpTraining, TrainerJobsInAnyOrderMatchTrainTtp) {
  TtpDataset dataset = synthetic_dataset(30, 30);
  for (size_t s = 0; s < dataset.size(); s++) {
    dataset[s].day = static_cast<int>(s % 3);
  }
  const TtpConfig config;
  const TtpTrainConfig train{
      .epochs = 2, .batch_size = 64, .max_examples_per_step = 1150};
  const TtpModel warm_start{config, 5};

  Rng rng{31};
  TtpTrainer trainer{config, dataset, /*current_day=*/2, train, rng,
                     &warm_start};
  ASSERT_EQ(trainer.num_steps(), config.horizon);
  for (int step = trainer.num_steps() - 1; step >= 0; step--) {
    trainer.train_step(step);
  }
  TtpTrainReport report;
  const TtpModel model = std::move(trainer).finish(&report);

  for (const int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    Rng expected_rng{31};
    TtpTrainReport expected_report;
    const TtpModel expected =
        train_ttp(config, dataset, /*current_day=*/2, train, expected_rng,
                  &warm_start, &expected_report, threads);
    EXPECT_EQ(network_bytes(model), network_bytes(expected));
    EXPECT_EQ(report.loss_per_epoch, expected_report.loss_per_epoch);
    EXPECT_EQ(report.examples_per_step, expected_report.examples_per_step);
    EXPECT_EQ(Rng{rng}.engine()(), expected_rng.engine()());
  }
}

TEST(TtpTraining, WarmStartImprovesInitialLoss) {
  const TtpDataset dataset = synthetic_dataset(12, 40);
  const TtpConfig config;
  TtpTrainConfig quick;
  quick.epochs = 1;
  Rng rng{13};
  const TtpModel first = train_ttp(config, dataset, 0, quick, rng);
  TtpTrainReport cold_report, warm_report;
  Rng rng2{14};
  train_ttp(config, dataset, 0, quick, rng2, nullptr, &cold_report);
  Rng rng3{14};
  train_ttp(config, dataset, 0, quick, rng3, &first, &warm_report);
  EXPECT_LT(warm_report.loss_per_epoch.front(),
            cold_report.loss_per_epoch.front());
}

/// The sliding window keeps the model trained on the *current* environment
/// (paper section 4.3). A model whose window ends before a drift — the
/// situation of "Emulation-trained Fugu" in Figure 11 — must fit the new
/// regime much worse than one trained on fresh data. (Note the paper's own
/// section 4.6 finding that when drift is mild or visible through the input
/// features, retraining frequency barely matters; our test uses a hard
/// regime change to expose the window's purpose.)
TEST(TtpTraining, FreshWindowBeatsStaleModelAfterDrift) {
  Rng rng{15};
  // Day 0: normal world. Day 20: every transfer takes 4x longer.
  TtpDataset dataset;
  for (int s = 0; s < 80; s++) {
    dataset.push_back(synthetic_stream(rng, 30, 4.0, 0, 1.0));
    dataset.push_back(synthetic_stream(rng, 30, 4.0, 20, 4.0));
  }
  TtpConfig config;
  config.horizon = 1;
  TtpTrainConfig train_config;
  train_config.window_days = 14;
  train_config.epochs = 10;
  train_config.batch_size = 128;

  // "Fresh": window ending at day 20 (sees only the new regime).
  Rng rng2{16};
  const TtpModel fresh =
      train_ttp(config, dataset, /*current_day=*/20, train_config, rng2);
  // "Stale": window ending at day 0 (trained before the drift).
  Rng rng3{16};
  const TtpModel stale =
      train_ttp(config, dataset, /*current_day=*/0, train_config, rng3);

  TtpDataset current_regime;
  for (int s = 0; s < 15; s++) {
    current_regime.push_back(synthetic_stream(rng, 30, 4.0, 20, 4.0));
  }
  const auto fresh_eval = evaluate_ttp(fresh, current_regime);
  const auto stale_eval = evaluate_ttp(stale, current_regime);
  EXPECT_LT(fresh_eval.cross_entropy, stale_eval.cross_entropy);
  EXPECT_GT(fresh_eval.top1_accuracy, stale_eval.top1_accuracy);
  EXPECT_LT(fresh_eval.rmse_expected_s, stale_eval.rmse_expected_s);
}

TEST(TtpTraining, MismatchedWarmStartRejected) {
  const TtpDataset dataset = synthetic_dataset(17, 10);
  TtpConfig small;
  small.hidden_layers = {};
  Rng rng{18};
  const TtpModel linear = train_ttp(small, dataset, 0,
                                    TtpTrainConfig{.epochs = 1}, rng);
  EXPECT_THROW(
      train_ttp(TtpConfig{}, dataset, 0, TtpTrainConfig{.epochs = 1}, rng,
                &linear),
      RequirementError);
}

/// Every count must be >= 1, checked at the call: unchecked, a negative
/// epoch count reaches a vector constructor and a zero batch size the loss.
TEST(TtpTraining, RejectsUnrunnableTrainConfigs) {
  const TtpDataset dataset = synthetic_dataset(17, 10);
  const auto rejected = [&](const TtpTrainConfig& bad, const char* field) {
    Rng rng{18};
    TtpTrainReport report;
    test::expect_rejected(
        [&] {
          static_cast<void>(
              train_ttp(TtpConfig{}, dataset, 0, bad, rng, nullptr, &report));
        },
        {field});
  };
  rejected(TtpTrainConfig{.epochs = -1}, "epochs");
  rejected(TtpTrainConfig{.epochs = 0}, "epochs");
  rejected(TtpTrainConfig{.batch_size = 0}, "batch_size");
  rejected(TtpTrainConfig{.window_days = 0}, "window_days");
  rejected(TtpTrainConfig{.max_examples_per_step = 0},
           "max_examples_per_step");
}

/// Figure 7's core ordering on a dataset where transmission time is a clean
/// function of size and tcp_info: the full TTP must beat the
/// throughput-only ablation (which cannot see size) and the no-tcp_info
/// ablation (which cannot see the rate).
TEST(TtpAblations, FullModelBeatsAblatedVariants) {
  const TtpDataset train = synthetic_dataset(19, 80);
  const TtpDataset test = synthetic_dataset(20, 25);
  TtpTrainConfig tc;
  tc.epochs = 6;

  auto fit = [&](TtpConfig config) {
    config.horizon = 1;  // evaluation uses step 0 only; faster
    Rng rng{21};
    return train_ttp(config, train, 0, tc, rng);
  };

  TtpConfig full_config;
  full_config.horizon = 1;
  const auto full = evaluate_ttp(fit(full_config), test);

  TtpConfig no_tcp = full_config;
  no_tcp.use_tcp_info = false;
  const auto without_tcp = evaluate_ttp(fit(no_tcp), test);

  TtpConfig linear = full_config;
  linear.hidden_layers = {};
  const auto linear_eval = evaluate_ttp(fit(linear), test);

  EXPECT_LT(full.cross_entropy, without_tcp.cross_entropy);
  EXPECT_LT(full.cross_entropy, linear_eval.cross_entropy);
  // Probabilistic expectation beats the max-likelihood point estimate in
  // RMSE (the "Point Estimate" ablation).
  EXPECT_LE(full.rmse_expected_s, full.rmse_point_s * 1.05);
}

TEST(BatchTtpPredictor, PointEstimateCollapsesDistribution) {
  auto model = std::make_shared<const TtpModel>(TtpConfig{}, 22);
  BatchTtpPredictor probabilistic{model, false};
  BatchTtpPredictor point{model, true};
  abr::AbrObservation obs;
  probabilistic.begin_decision(obs);
  point.begin_decision(obs);
  EXPECT_EQ(probabilistic.predict(0, 1'000'000).size(),
            static_cast<size_t>(kTtpBins));
  const auto collapsed = point.predict(0, 1'000'000);
  ASSERT_EQ(collapsed.size(), 1u);
  EXPECT_DOUBLE_EQ(collapsed[0].probability, 1.0);
}

TEST(BatchTtpPredictor, HistoryUpdatesAndReset) {
  auto model = std::make_shared<const TtpModel>(TtpConfig{}, 23);
  BatchTtpPredictor predictor{model};
  abr::ChunkRecord record;
  record.size_bytes = 2'000'000;
  record.transmission_time_s = 1.0;
  predictor.on_chunk_complete(record);
  EXPECT_EQ(predictor.history().sizes_mb.size(), 1u);
  predictor.reset_session();
  EXPECT_TRUE(predictor.history().sizes_mb.empty());
}

/// reset_session also drops a decision staged into a shared batch, so the
/// next session's first plan is answered standalone, not from the stale
/// (never run) batch.
TEST(BatchTtpPredictor, ResetDropsStagedDecision) {
  auto model = std::make_shared<const TtpModel>(TtpConfig{}, 23);
  BatchTtpPredictor predictor{model};
  BatchTtpPredictor fresh{model};
  const abr::AbrObservation obs;
  TtpInferenceBatch batch;
  predictor.stage(obs, test::make_lookahead(5), 5, batch);
  predictor.reset_session();

  std::vector<abr::TxTimeQuery> queries;
  abr::enumerate_tx_time_queries(test::make_lookahead(2), 2, queries);
  std::vector<abr::TxTimeDistribution> answered, expected;
  predictor.begin_decision(obs);
  fresh.begin_decision(obs);
  predictor.predict_batch(queries, answered);
  fresh.predict_batch(queries, expected);
  ASSERT_EQ(answered.size(), expected.size());
  for (size_t i = 0; i < answered.size(); i++) {
    ASSERT_EQ(answered[i].size(), expected[i].size());
    for (size_t j = 0; j < answered[i].size(); j++) {
      EXPECT_EQ(answered[i][j].time_s, expected[i][j].time_s);
      EXPECT_EQ(answered[i][j].probability, expected[i][j].probability);
    }
  }
}

TEST(MakeFugu, BuildsMpcWithTtp) {
  auto model = std::make_shared<const TtpModel>(TtpConfig{}, 24);
  const auto fugu = make_fugu(model);
  EXPECT_EQ(fugu->name(), "Fugu");
  abr::AbrObservation obs;
  obs.buffer_s = 5.0;
  const auto lookahead = test::make_lookahead(5);
  const int rung = fugu->choose_rung(obs, lookahead);
  EXPECT_GE(rung, 0);
  EXPECT_LT(rung, media::kNumRungs);
}

TEST(DataAggregator, WindowFiltersByDay) {
  DataAggregator aggregator;
  Rng rng{25};
  for (int day = 0; day < 20; day++) {
    aggregator.add_stream(synthetic_stream(rng, 3, 5.0, day));
  }
  EXPECT_EQ(aggregator.num_streams(), 20u);
  EXPECT_EQ(aggregator.num_chunks(), 60u);
  const auto window = aggregator.window(/*current_day=*/19, /*window_days=*/14);
  ASSERT_EQ(window.size(), 14u);
  for (const auto& stream : window) {
    EXPECT_GT(stream.day, 5);
    EXPECT_LE(stream.day, 19);
  }
}

}  // namespace
}  // namespace puffer::fugu
