// nn_kernels: throughput of the GEMM kernel layer (src/nn/gemm.{hh,cc})
// against the naive reference kernels (tests/oracles/naive_gemm.hh), on the
// TTP network shape (22 -> 64 -> 64 -> 21) that dominates every ABR
// decision and nightly retrain.
//
//   ./nn_kernels [--smoke] [--json PATH]
//
// Measures rows/s for single-row inference (forward_one), batched GEMM
// inference (forward), batched TTP prediction (BatchTtpPredictor), the
// training step (forward_tape + cross-entropy + backward + Adam) at the TTP
// trainer's minibatch size, and the backward pass alone, each next to its
// naive-kernel baseline. Before timing anything it audits the kernel
// determinism contract — repeated runs bitwise identical, batched rows
// bitwise equal to single-row results, SIMD bitwise equal to the portable
// fallback, training bitwise reproducible, batched TTP bitwise equal to the
// scalar oracle predictor (tests/oracles/ttp_reference.hh) — and exits
// non-zero on any mismatch (--smoke shrinks the timed sections to seconds;
// CI runs it).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "fugu/batch_ttp.hh"
#include "fugu/ttp.hh"
#include "fugu/ttp_trainer.hh"
#include "nn/gemm.hh"
#include "nn/loss.hh"
#include "nn/mlp.hh"
#include "nn/optimizer.hh"
#include "oracles/naive_gemm.hh"
#include "oracles/ttp_reference.hh"
#include "util/require.hh"
#include "util/rng.hh"
#include "util/simd.hh"

namespace {

using puffer::Rng;
namespace abr = puffer::abr;
namespace fugu = puffer::fugu;
namespace media = puffer::media;
namespace nn = puffer::nn;
namespace oracle = puffer::oracle;
namespace util = puffer::util;

constexpr size_t kTtpShape[] = {22, 64, 64, 21};

double seconds_since(const std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Run `body` repeatedly until ~target_s elapsed; returns iterations/second.
double time_loop(const double target_s, const std::function<void()>& body) {
  body();  // warm caches and scratch buffers before timing
  int64_t iterations = 0;
  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    for (int i = 0; i < 32; i++) {
      body();
    }
    iterations += 32;
    elapsed = seconds_since(start);
  } while (elapsed < target_s);
  return static_cast<double>(iterations) / elapsed;
}

nn::Matrix random_batch(Rng& rng, const size_t rows, const size_t cols) {
  nn::Matrix m{rows, cols};
  for (size_t i = 0; i < m.size(); i++) {
    m.data()[i] = static_cast<float>(rng.normal());
  }
  return m;
}

bool same_bits(const nn::Matrix& a, const nn::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// The seed's forward pass, verbatim, on the naive kernels (ping-pong
/// between two scratch matrices, separate bias and ReLU passes).
void naive_forward(const nn::Mlp& net, const nn::Matrix& input,
                   nn::Matrix& logits, nn::Matrix& scratch) {
  const nn::Matrix* src = &input;
  for (size_t l = 0; l < net.num_layers(); l++) {
    const size_t layers_after = net.num_layers() - 1 - l;
    nn::Matrix* dst = (layers_after % 2 == 0) ? &logits : &scratch;
    oracle::naive_matmul(*src, net.weights()[l], *dst);
    nn::add_row_bias(*dst, net.biases()[l]);
    if (l + 1 < net.num_layers()) {
      for (size_t i = 0; i < dst->size(); i++) {
        dst->data()[i] = std::max(dst->data()[i], 0.0f);
      }
    }
    src = dst;
  }
}

/// The seed's backward pass on the naive kernels, from the activations of
/// a forward pass (input first, logits last) and dL/dlogits.
void naive_backward(const nn::Mlp& net, const std::vector<nn::Matrix>& acts,
                    const nn::Matrix& dlogits, nn::Gradients& grads) {
  nn::Matrix delta = dlogits;
  nn::Matrix next_delta, dw;
  for (size_t l = net.num_layers(); l-- > 0;) {
    oracle::naive_matmul_at(acts[l], delta, dw);
    grads.weights[l].add_inplace(dw);
    for (size_t r = 0; r < delta.rows(); r++) {
      const float* row = delta.data() + r * delta.cols();
      for (size_t c = 0; c < delta.cols(); c++) {
        grads.biases[l][c] += row[c];
      }
    }
    if (l == 0) {
      break;
    }
    oracle::naive_matmul_bt(delta, net.weights()[l], next_delta);
    for (size_t i = 0; i < next_delta.size(); i++) {
      if (acts[l].data()[i] <= 0.0f) {
        next_delta.data()[i] = 0.0f;
      }
    }
    std::swap(delta, next_delta);
  }
}

/// The seed's forward pass keeping every layer's output (input first).
std::vector<nn::Matrix> naive_forward_tape(const nn::Mlp& net,
                                           const nn::Matrix& inputs) {
  std::vector<nn::Matrix> acts;
  acts.push_back(inputs);
  for (size_t l = 0; l < net.num_layers(); l++) {
    nn::Matrix next;
    oracle::naive_matmul(acts.back(), net.weights()[l], next);
    nn::add_row_bias(next, net.biases()[l]);
    if (l + 1 < net.num_layers()) {
      for (size_t i = 0; i < next.size(); i++) {
        next.data()[i] = std::max(next.data()[i], 0.0f);
      }
    }
    acts.push_back(std::move(next));
  }
  return acts;
}

/// One seed-style training step on the naive kernels (fresh tape and
/// gradient buffers per call, exactly like the pre-kernel-layer trainer).
double naive_train_step(nn::Mlp& net, const nn::Matrix& inputs,
                        const std::vector<int>& labels,
                        nn::AdamOptimizer& optimizer) {
  const std::vector<nn::Matrix> acts = naive_forward_tape(net, inputs);
  nn::Matrix dlogits;
  const double loss =
      nn::softmax_cross_entropy(acts.back(), labels, dlogits);
  nn::Gradients grads = net.make_gradients();
  naive_backward(net, acts, dlogits, grads);
  optimizer.step(net, grads);
  return loss;
}

double packed_train_step(nn::Mlp& net, const nn::Matrix& inputs,
                         const std::vector<int>& labels, nn::Tape& tape,
                         nn::Matrix& dlogits, nn::Gradients& grads,
                         nn::AdamOptimizer& optimizer) {
  net.forward_tape(inputs, tape);
  const double loss =
      nn::softmax_cross_entropy(tape.activations.back(), labels, dlogits);
  grads.zero();
  net.backward(tape, dlogits, grads);
  optimizer.step(net, grads);
  return loss;
}

bool same_dists(const std::vector<abr::TxTimeDistribution>& a,
                const std::vector<abr::TxTimeDistribution>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); i++) {
    if (a[i].size() != b[i].size()) {
      return false;
    }
    for (size_t j = 0; j < a[i].size(); j++) {
      if (std::memcmp(&a[i][j].time_s, &b[i][j].time_s, sizeof(double)) != 0 ||
          std::memcmp(&a[i][j].probability, &b[i][j].probability,
                      sizeof(double)) != 0) {
        return false;
      }
    }
  }
  return true;
}

struct AuditResult {
  bool ok = true;
  void check(const bool passed, const char* what) {
    std::printf("  audit %-38s: %s\n", what, passed ? "ok" : "FAILED");
    ok = ok && passed;
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_nn.json";
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: nn_kernels [--smoke] [--json PATH]\n");
      return 2;
    }
  }
  const double target_s = smoke ? 0.1 : 1.0;
  const size_t batch_rows = 256;

  const nn::Mlp net{{std::begin(kTtpShape), std::end(kTtpShape)}, 20190119};
  Rng rng{1};
  const nn::Matrix batch = random_batch(rng, batch_rows, net.input_size());
  const std::vector<float> one_row{batch.row(0).begin(), batch.row(0).end()};

  std::printf("== nn kernel layer (%s, %s) ==\n", puffer::nn::gemm_active_path().c_str(),
              smoke ? "smoke" : "full");

  // -------------------------------------------------------------------
  // Determinism audits (before timing; exit non-zero on any mismatch).
  // -------------------------------------------------------------------
  AuditResult audit;
  {
    nn::Matrix a, b, scratch;
    net.forward(batch, a, scratch);
    net.forward(batch, b, scratch);
    audit.check(same_bits(a, b), "repeated batched forward bitwise");

    nn::ForwardScratch one;
    bool rows_match = true;
    for (size_t r = 0; r < batch.rows(); r++) {
      const std::span<const float> logits = net.forward_one(
          std::span<const float>{batch.data() + r * batch.cols(),
                                 batch.cols()},
          one);
      rows_match = rows_match &&
                   std::memcmp(logits.data(), a.data() + r * a.cols(),
                               a.cols() * sizeof(float)) == 0;
    }
    audit.check(rows_match, "batched == single-row bitwise");

    if (nn::gemm_simd_available()) {
      util::set_force_portable(true);
      nn::Matrix portable;
      net.forward(batch, portable, scratch);
      util::set_force_portable(false);
      audit.check(same_bits(a, portable), "SIMD == portable bitwise");
    }
  }
  {
    std::vector<int> labels(batch_rows);
    for (size_t r = 0; r < batch_rows; r++) {
      labels[r] = static_cast<int>(r % net.output_size());
    }
    nn::Mlp net_a{{std::begin(kTtpShape), std::end(kTtpShape)}, 7};
    nn::Mlp net_b{{std::begin(kTtpShape), std::end(kTtpShape)}, 7};
    nn::AdamOptimizer opt_a{1e-3}, opt_b{1e-3};
    nn::Tape tape;
    nn::Matrix dlogits;
    nn::Gradients grads_a = net_a.make_gradients();
    nn::Gradients grads_b = net_b.make_gradients();
    for (int step = 0; step < 5; step++) {
      packed_train_step(net_a, batch, labels, tape, dlogits, grads_a, opt_a);
      packed_train_step(net_b, batch, labels, tape, dlogits, grads_b, opt_b);
    }
    audit.check(net_a == net_b, "training bitwise reproducible");
  }

  // -------------------------------------------------------------------
  // Single-row inference (the per-decision scalar path).
  // -------------------------------------------------------------------
  nn::ForwardScratch one_scratch;
  const double forward_one_rows = time_loop(target_s, [&] {
    (void)net.forward_one(one_row, one_scratch);
  });
  nn::Matrix naive_in{1, net.input_size()};
  std::copy(one_row.begin(), one_row.end(), naive_in.data());
  nn::Matrix naive_logits, naive_scratch;
  const double forward_one_naive_rows = time_loop(target_s, [&] {
    naive_forward(net, naive_in, naive_logits, naive_scratch);
  });

  // -------------------------------------------------------------------
  // Batched GEMM inference (fleet-coalesced decisions, evaluation sweeps).
  // -------------------------------------------------------------------
  nn::Matrix logits, scratch;
  const double forward_calls = time_loop(target_s, [&] {
    net.forward(batch, logits, scratch);
  });
  const double forward_naive_calls = time_loop(target_s, [&] {
    naive_forward(net, batch, naive_logits, naive_scratch);
  });
  const double forward_rows = forward_calls * static_cast<double>(batch_rows);
  const double forward_naive_rows =
      forward_naive_calls * static_cast<double>(batch_rows);

  // -------------------------------------------------------------------
  // Batched TTP prediction (one full MPC decision's queries per call).
  // -------------------------------------------------------------------
  const auto model =
      std::make_shared<fugu::TtpModel>(fugu::TtpConfig{}, 20190119);
  const int horizon = model->config().horizon;
  std::vector<abr::TxTimeQuery> queries;
  for (int step = 0; step < horizon; step++) {
    for (int rung = 0; rung < media::kNumRungs; rung++) {
      queries.push_back({step, rng.uniform_int(50'000, 6'000'000)});
    }
  }
  abr::AbrObservation obs;
  obs.tcp.cwnd_pkts = 80.0;
  obs.tcp.in_flight_pkts = 40.0;
  obs.tcp.min_rtt_s = 0.05;
  obs.tcp.srtt_s = 0.08;
  obs.tcp.delivery_rate_bps = 8e6;
  fugu::BatchTtpPredictor batched{model};
  oracle::ScalarTtpPredictor scalar{model};
  for (int i = 0; i < fugu::kTtpHistory; i++) {
    abr::ChunkRecord record;
    record.size_bytes = 500'000;
    record.transmission_time_s = 0.5;
    batched.on_chunk_complete(record);
    scalar.on_chunk_complete(record);
  }
  batched.begin_decision(obs);
  scalar.begin_decision(obs);
  std::vector<abr::TxTimeDistribution> out, expected;
  scalar.predict_batch(queries, expected);
  batched.predict_batch(queries, out);
  audit.check(same_dists(expected, out), "batched TTP == scalar TTP bitwise");

  const double query_rows = static_cast<double>(queries.size());
  const double ttp_batched_rows =
      time_loop(target_s, [&] { batched.predict_batch(queries, out); }) *
      query_rows;
  const double ttp_scalar_rows =
      time_loop(target_s, [&] { scalar.predict_batch(queries, out); }) *
      query_rows;

  // -------------------------------------------------------------------
  // Training step (nightly retrain inner loop) at the trainer's minibatch
  // size, and its backward pass alone.
  // -------------------------------------------------------------------
  const auto train_rows =
      static_cast<size_t>(fugu::TtpTrainConfig{}.batch_size);
  const nn::Matrix train_batch = random_batch(rng, train_rows, net.input_size());
  std::vector<int> train_labels(train_rows);
  for (size_t r = 0; r < train_rows; r++) {
    train_labels[r] = static_cast<int>((r * 7) % net.output_size());
  }
  nn::Mlp train_net{{std::begin(kTtpShape), std::end(kTtpShape)}, 3};
  nn::AdamOptimizer train_opt{1e-3};
  nn::Tape train_tape;
  nn::Matrix train_dlogits;
  nn::Gradients train_grads = train_net.make_gradients();
  const double train_steps = time_loop(target_s, [&] {
    packed_train_step(train_net, train_batch, train_labels, train_tape,
                      train_dlogits, train_grads, train_opt);
  });
  nn::Mlp naive_net{{std::begin(kTtpShape), std::end(kTtpShape)}, 3};
  nn::AdamOptimizer naive_opt{1e-3};
  const double naive_train_steps = time_loop(target_s, [&] {
    naive_train_step(naive_net, train_batch, train_labels, naive_opt);
  });
  const double train_examples = train_steps * static_cast<double>(train_rows);
  const double naive_train_examples =
      naive_train_steps * static_cast<double>(train_rows);

  // The trained network's backward pass, from one forward pass and loss.
  train_net.forward_tape(train_batch, train_tape);
  (void)nn::softmax_cross_entropy(train_tape.activations.back(), train_labels,
                                  train_dlogits);
  const double backward_calls = time_loop(target_s, [&] {
    train_grads.zero();
    train_net.backward(train_tape, train_dlogits, train_grads);
  });
  const std::vector<nn::Matrix> naive_acts =
      naive_forward_tape(train_net, train_batch);
  nn::Gradients naive_grads = train_net.make_gradients();
  const double naive_backward_calls = time_loop(target_s, [&] {
    naive_grads.zero();
    naive_backward(train_net, naive_acts, train_dlogits, naive_grads);
  });
  const double backward_rows =
      backward_calls * static_cast<double>(train_rows);
  const double naive_backward_rows =
      naive_backward_calls * static_cast<double>(train_rows);

  std::printf("\n  %-22s %14s %14s %9s\n", "path (rows/s)", "kernel layer",
              "naive ref", "speedup");
  const auto line = [](const char* name, const double fast,
                       const double naive) {
    std::printf("  %-22s %14.0f %14.0f %8.2fx\n", name, fast, naive,
                fast / naive);
  };
  line("forward_one", forward_one_rows, forward_one_naive_rows);
  line("forward (batch 256)", forward_rows, forward_naive_rows);
  line("batched TTP decision", ttp_batched_rows, ttp_scalar_rows);
  line("train step (batch 256)", train_examples, naive_train_examples);
  line("backward (batch 256)", backward_rows, naive_backward_rows);

  puffer::bench::JsonWriter json;
  json.field("bench", "nn_kernels");
  json.field("smoke", smoke);
  json.field("gemm_path", puffer::nn::gemm_active_path());
  json.field("forward_one_rows_per_s", forward_one_rows, 0);
  json.field("forward_one_naive_rows_per_s", forward_one_naive_rows, 0);
  json.field("forward_one_speedup", forward_one_rows / forward_one_naive_rows,
             3);
  json.field("forward_batch_rows_per_s", forward_rows, 0);
  json.field("forward_batch_naive_rows_per_s", forward_naive_rows, 0);
  json.field("forward_batch_speedup", forward_rows / forward_naive_rows, 3);
  json.field("ttp_batched_rows_per_s", ttp_batched_rows, 0);
  json.field("ttp_scalar_rows_per_s", ttp_scalar_rows, 0);
  json.field("ttp_batched_speedup", ttp_batched_rows / ttp_scalar_rows, 3);
  json.field("train_rows_per_s", train_examples, 0);
  json.field("train_naive_rows_per_s", naive_train_examples, 0);
  json.field("train_speedup", train_examples / naive_train_examples, 3);
  json.field("backward_rows_per_s", backward_rows, 0);
  json.field("backward_naive_rows_per_s", naive_backward_rows, 0);
  json.field("backward_speedup", backward_rows / naive_backward_rows, 3);
  json.field("bitwise_deterministic", audit.ok);
  json.write_file(json_path);

  if (!audit.ok) {
    std::fprintf(stderr, "nn_kernels: BITWISE AUDIT FAILED\n");
    return 1;
  }
  return 0;
}
