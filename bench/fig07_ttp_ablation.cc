// Figure 7: ablation study of Fugu's Transmission Time Predictor. Removing
// each input/output/feature degrades its ability to predict transmission
// times. Variants (paper section 4.6):
//   * Full TTP            — everything on
//   * Point Estimate      — same network, max-likelihood output only
//   * Throughput Predictor— predicts throughput, ignores proposed chunk size
//   * Linear              — no hidden layers
//   * -tcp_info           — drops RTT/CWND/in-flight/delivery-rate inputs
//   * -history            — only 2 past chunks instead of 8
//
// Trains every variant on the same in-situ telemetry and evaluates on a
// held-out split.

#include <span>

#include "bench_common.hh"
#include "exp/insitu.hh"
#include "fugu/ttp_trainer.hh"
#include "util/table.hh"

int main() {
  using namespace puffer;

  std::printf("[setup] collecting in-situ telemetry (cached)...\n");
  fugu::TtpDataset dataset = exp::get_insitu_dataset();
  // Split by stream: 80% train / 20% held out.
  Rng split_rng{77};
  shuffle(std::span{dataset}, split_rng);
  const size_t train_count = dataset.size() * 4 / 5;
  const fugu::TtpDataset train_set{dataset.begin(),
                                   dataset.begin() + static_cast<long>(train_count)};
  const fugu::TtpDataset test_set{dataset.begin() + static_cast<long>(train_count),
                                  dataset.end()};
  size_t train_chunks = 0;
  for (const auto& s : train_set) {
    train_chunks += s.chunks.size();
  }
  std::printf("[setup] %zu training streams (%zu chunks), %zu held-out "
              "streams\n\n", train_set.size(), train_chunks, test_set.size());

  fugu::TtpTrainConfig train_config;
  auto fit_and_eval = [&](fugu::TtpConfig config) {
    config.horizon = 1;  // the ablation evaluates step-0 prediction
    Rng rng{42};
    const fugu::TtpModel model =
        fugu::train_ttp(config, train_set, 0, train_config, rng);
    return fugu::evaluate_ttp(model, test_set);
  };

  fugu::TtpConfig full_config;
  const auto full = fit_and_eval(full_config);

  fugu::TtpConfig throughput_config;
  throughput_config.target = fugu::TtpTarget::kThroughput;
  const auto throughput = fit_and_eval(throughput_config);

  fugu::TtpConfig linear_config;
  linear_config.hidden_layers = {};
  const auto linear = fit_and_eval(linear_config);

  fugu::TtpConfig no_tcp_config;
  no_tcp_config.use_tcp_info = false;
  const auto no_tcp = fit_and_eval(no_tcp_config);

  fugu::TtpConfig short_history_config;
  short_history_config.history = 2;
  const auto short_history = fit_and_eval(short_history_config);

  Table table{{"Variant", "RMSE tx-time (s)", "Cross-entropy (nats)",
               "Top-1 bin acc"}};
  auto row = [&](const char* name, const double rmse,
                 const fugu::TtpEvaluation& eval) {
    table.add_row({name, format_fixed(rmse, 3),
                   format_fixed(eval.cross_entropy, 3),
                   format_percent(eval.top1_accuracy, 1)});
  };
  row("Full TTP (probabilistic)", full.rmse_expected_s, full);
  row("Point Estimate (max likelihood)", full.rmse_point_s, full);
  row("-tcp_info inputs", no_tcp.rmse_expected_s, no_tcp);
  row("-history (2 past chunks)", short_history.rmse_expected_s, short_history);
  row("Linear model (no hidden layers)", linear.rmse_expected_s, linear);
  row("Throughput Predictor (no size input)", throughput.rmse_expected_s,
      throughput);
  std::printf("%s\n", table.to_string().c_str());

  const bool prob_beats_point = full.rmse_expected_s <= full.rmse_point_s;
  const bool full_beats_linear = full.cross_entropy < linear.cross_entropy;
  const bool full_beats_throughput =
      full.rmse_expected_s < throughput.rmse_expected_s;
  const bool full_beats_no_tcp = full.cross_entropy < no_tcp.cross_entropy;
  std::printf("Shape checks vs paper (each ablation hurts):\n"
              "  probabilistic <= point estimate (RMSE):    %s\n"
              "  full beats linear (cross-entropy):         %s\n"
              "  full beats throughput-predictor (RMSE):    %s\n"
              "  full beats -tcp_info (cross-entropy):      %s\n",
              prob_beats_point ? "holds" : "VIOLATED",
              full_beats_linear ? "holds" : "VIOLATED",
              full_beats_throughput ? "holds" : "VIOLATED",
              full_beats_no_tcp ? "holds" : "VIOLATED");
  return prob_beats_point && full_beats_linear && full_beats_throughput
             ? 0
             : 1;
}
