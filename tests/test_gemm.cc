// Property tests for the GEMM kernel layer (src/nn/gemm.{hh,cc}): the
// packed/tiled SIMD kernels against the naive reference
// (tests/oracles/naive_gemm.hh) over randomized shapes (including SIMD tail
// lanes and degenerate vectors), the fused epilogues, the packed-weight Mlp
// forward, and the kernel determinism contract (repeat-run,
// batch-independence, SIMD==portable, the backward pass's transposed
// products bitwise equal to one ascending FMA chain per output).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "nn/gemm.hh"
#include "nn/loss.hh"
#include "nn/matrix.hh"
#include "nn/mlp.hh"
#include "oracles/naive_gemm.hh"
#include "test_helpers.hh"
#include "util/rng.hh"

namespace puffer::nn {
namespace {

Matrix random_matrix(Rng& rng, const size_t rows, const size_t cols) {
  Matrix m{rows, cols};
  for (size_t i = 0; i < m.size(); i++) {
    m.data()[i] = static_cast<float>(rng.normal());
  }
  return m;
}

std::vector<float> random_bias(Rng& rng, const size_t n) {
  std::vector<float> bias(n);
  for (float& b : bias) {
    b = static_cast<float>(rng.normal());
  }
  return bias;
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

void expect_near(const Matrix& actual, const Matrix& expected,
                 const std::string& what) {
  ASSERT_EQ(actual.rows(), expected.rows()) << what;
  ASSERT_EQ(actual.cols(), expected.cols()) << what;
  for (size_t i = 0; i < actual.size(); i++) {
    const double e = expected.data()[i];
    EXPECT_NEAR(actual.data()[i], e, 1e-4 * std::max(1.0, std::abs(e)))
        << what << " element " << i;
  }
}

// Shapes exercising full tiles, SIMD tail lanes (panel width 16, row tile
// 4), and degenerate 1xN / Nx1 / k=1 cases.
const size_t kShapeDims[] = {1, 2, 3, 4, 5, 7, 15, 16, 17, 21, 33};

TEST(Gemm, MatchesNaiveOverRandomizedShapes) {
  Rng rng{2024};
  for (const size_t m : kShapeDims) {
    for (const size_t k : kShapeDims) {
      for (const size_t n : kShapeDims) {
        const Matrix a = random_matrix(rng, m, k);
        const Matrix b = random_matrix(rng, k, n);
        Matrix fast, naive;
        matmul(a, b, fast);
        oracle::naive_matmul(a, b, naive);
        expect_near(fast, naive,
                    "matmul " + std::to_string(m) + "x" + std::to_string(k) +
                        "x" + std::to_string(n));
      }
    }
  }
}

TEST(Gemm, TransposedVariantsMatchNaive) {
  Rng rng{77};
  for (const size_t m : {1u, 3u, 8u, 17u}) {
    for (const size_t k : {1u, 5u, 16u, 33u}) {
      for (const size_t n : {1u, 4u, 15u, 21u}) {
        const Matrix a = random_matrix(rng, m, k);
        const Matrix bt = random_matrix(rng, n, k);  // b^T operand
        Matrix fast, naive;
        matmul_bt(a, bt, fast);
        oracle::naive_matmul_bt(a, bt, naive);
        expect_near(fast, naive, "matmul_bt");

        const Matrix a2 = random_matrix(rng, k, m);  // a^T operand
        const Matrix b2 = random_matrix(rng, k, n);
        matmul_at(a2, b2, fast);
        oracle::naive_matmul_at(a2, b2, naive);
        expect_near(fast, naive, "matmul_at");
      }
    }
  }
}

/// Entries like the backward pass's: mostly normal, with subnormals (the
/// loss gradient has some), signed zeros and large magnitudes mixed in.
Matrix extreme_matrix(Rng& rng, const size_t rows, const size_t cols) {
  Matrix m{rows, cols};
  for (size_t i = 0; i < m.size(); i++) {
    const double kind = rng.uniform();
    float v = static_cast<float>(rng.normal());
    if (kind < 0.05) {
      v *= 1e-39f;  // subnormal
    } else if (kind < 0.10) {
      v = kind < 0.075 ? 0.0f : -0.0f;
    } else if (kind < 0.13) {
      v *= 1e15f;
    }
    m.data()[i] = v;
  }
  return m;
}

/// The kernel contract written out: out[i][j] is one fmaf chain from +0.0
/// over ascending p of a^T's (i, p) entry times b's (p, j) entry.
Matrix fma_chain_matmul_at(const Matrix& a, const Matrix& b) {
  Matrix out{a.cols(), b.cols()};
  for (size_t i = 0; i < out.rows(); i++) {
    for (size_t j = 0; j < out.cols(); j++) {
      float acc = 0.0f;
      for (size_t p = 0; p < a.rows(); p++) {
        acc = std::fmaf(a.at(p, i), b.at(p, j), acc);
      }
      out.at(i, j) = acc;
    }
  }
  return out;
}

/// The same for a * b^T.
Matrix fma_chain_matmul_bt(const Matrix& a, const Matrix& b) {
  Matrix out{a.rows(), b.rows()};
  for (size_t i = 0; i < out.rows(); i++) {
    for (size_t j = 0; j < out.cols(); j++) {
      float acc = 0.0f;
      for (size_t p = 0; p < a.cols(); p++) {
        acc = std::fmaf(a.at(i, p), b.at(j, p), acc);
      }
      out.at(i, j) = acc;
    }
  }
  return out;
}

/// matmul_at and matmul_bt on the TTP's training shapes (a 256-row
/// minibatch, layer widths 22, 64 and 21) against the FMA chains, bitwise.
void expect_transposed_products_match_fma_chains() {
  Rng rng{101};
  const size_t k = 256;
  for (const size_t m : {22u, 64u}) {
    for (const size_t n : {21u, 64u}) {
      const std::string shape = std::to_string(m) + "x" + std::to_string(n);
      // dW = input^T * delta: a is (k x m), b is (k x n).
      const Matrix input = extreme_matrix(rng, k, m);
      const Matrix delta = extreme_matrix(rng, k, n);
      Matrix dw;
      matmul_at(input, delta, dw);
      EXPECT_TRUE(same_bits(dw, fma_chain_matmul_at(input, delta)))
          << "matmul_at " << shape << " on " << gemm_active_path();
      // next delta = delta * W^T: W is (m x n).
      const Matrix weights = extreme_matrix(rng, m, n);
      Matrix next;
      matmul_bt(delta, weights, next);
      EXPECT_TRUE(same_bits(next, fma_chain_matmul_bt(delta, weights)))
          << "matmul_bt " << shape << " on " << gemm_active_path();
    }
  }
}

TEST(Gemm, TransposedVariantsEqualFmaChainsBitwise) {
  expect_transposed_products_match_fma_chains();
  test::ForcePortableGuard guard;
  expect_transposed_products_match_fma_chains();
}

TEST(Gemm, FusedBiasReluMatchesUnfusedBitwise) {
  Rng rng{5};
  const Matrix a = random_matrix(rng, 6, 22);
  const Matrix b = random_matrix(rng, 22, 21);
  const std::vector<float> bias = random_bias(rng, 21);
  PackedMatrix packed;
  packed.pack_from(b);

  Matrix plain;
  gemm(a, packed, plain);
  Matrix unfused = plain;
  add_row_bias(unfused, bias);

  Matrix with_bias;
  gemm(a, packed, with_bias, Epilogue::kBias, bias);
  EXPECT_TRUE(same_bits(with_bias, unfused));

  for (size_t i = 0; i < unfused.size(); i++) {
    unfused.data()[i] = std::max(unfused.data()[i], 0.0f);
  }
  Matrix with_relu;
  gemm(a, packed, with_relu, Epilogue::kBiasRelu, bias);
  EXPECT_TRUE(same_bits(with_relu, unfused));
}

TEST(Gemm, RowResultsIndependentOfBatchSize) {
  // The batched==scalar bitwise contract: an output row accumulates in the
  // same order whether it is computed alone or inside any batch.
  Rng rng{11};
  const Matrix a = random_matrix(rng, 7, 22);
  const Matrix b = random_matrix(rng, 22, 21);
  PackedMatrix packed;
  packed.pack_from(b);
  Matrix batch;
  gemm(a, packed, batch);
  for (size_t r = 0; r < a.rows(); r++) {
    Matrix single;
    gemm(a.data() + r * a.cols(), a.cols(), 1, packed, single);
    ASSERT_EQ(single.cols(), batch.cols());
    EXPECT_EQ(std::memcmp(single.data(), batch.data() + r * batch.cols(),
                          batch.cols() * sizeof(float)),
              0)
        << "row " << r;
  }
}

TEST(Gemm, RepeatedRunsBitwiseIdentical) {
  Rng rng{13};
  const Matrix a = random_matrix(rng, 9, 33);
  const Matrix b = random_matrix(rng, 33, 17);
  Matrix first, second;
  matmul(a, b, first);
  matmul(a, b, second);
  EXPECT_TRUE(same_bits(first, second));
}

TEST(Gemm, PortableAndSimdPathsBitwiseIdentical) {
  if (!gemm_simd_available()) {
    GTEST_SKIP() << "AVX2/FMA kernels not available on this machine";
  }
  Rng rng{17};
  for (const size_t m : {1u, 4u, 9u}) {
    for (const size_t n : {1u, 16u, 21u, 47u}) {
      const Matrix a = random_matrix(rng, m, 22);
      const Matrix b = random_matrix(rng, 22, n);
      Matrix simd, portable;
      matmul(a, b, simd);
      {
        test::ForcePortableGuard guard;
        EXPECT_EQ(gemm_active_path(), "portable");
        matmul(a, b, portable);
      }
      EXPECT_TRUE(same_bits(simd, portable)) << m << "x" << n;
    }
  }
  EXPECT_EQ(gemm_active_path(), "avx2");
}

TEST(PackedMatrix, TransposedPackingMatchesExplicitTranspose) {
  Rng rng{19};
  const Matrix bt = random_matrix(rng, 7, 13);  // (n x k)
  Matrix b{13, 7};
  for (size_t r = 0; r < bt.rows(); r++) {
    for (size_t c = 0; c < bt.cols(); c++) {
      b.at(c, r) = bt.at(r, c);
    }
  }
  PackedMatrix from_plain, from_transposed;
  from_plain.pack_from(b);
  from_transposed.pack_from_transposed(bt);
  ASSERT_EQ(from_plain.k(), from_transposed.k());
  ASSERT_EQ(from_plain.n(), from_transposed.n());
  for (size_t p = 0; p < from_plain.num_panels(); p++) {
    EXPECT_EQ(std::memcmp(from_plain.panel(p), from_transposed.panel(p),
                          from_plain.k() * kPanelWidth * sizeof(float)),
              0)
        << "panel " << p;
  }
}

TEST(PackedMatrix, TailPaddingIsPositiveZeroAfterAWiderPack) {
  // Fill the scratch with subnormals and negative zeros first: packing a
  // narrower matrix into it must leave +0.0 in every padding lane.
  Matrix wide{256, 32};
  for (size_t i = 0; i < wide.size(); i++) {
    wide.data()[i] = i % 2 == 0 ? -1e-40f : -0.0f;
  }
  Rng rng{29};
  const Matrix narrow = random_matrix(rng, 256, 21);  // (k x n)
  Matrix narrow_t{21, 256};
  for (size_t r = 0; r < narrow.rows(); r++) {
    for (size_t c = 0; c < narrow.cols(); c++) {
      narrow_t.at(c, r) = narrow.at(r, c);
    }
  }
  const auto expect_zero_padding = [&](const PackedMatrix& packed,
                                       const char* how) {
    ASSERT_EQ(packed.num_panels(), 2u) << how;
    const float* tail = packed.panel(1);
    for (size_t p = 0; p < packed.k(); p++) {
      for (size_t lane = 0; lane < kPanelWidth; lane++) {
        const float v = tail[p * kPanelWidth + lane];
        if (lane < 5) {
          ASSERT_EQ(v, narrow.at(p, 16 + lane)) << how;
        } else {
          uint32_t bits = 0;
          std::memcpy(&bits, &v, sizeof(bits));
          ASSERT_EQ(bits, 0u) << how << " row " << p << " lane " << lane;
        }
      }
    }
  };
  PackedMatrix packed;
  packed.pack_from(wide);
  packed.pack_from(narrow);
  expect_zero_padding(packed, "pack_from");
  packed.pack_from(wide);
  packed.pack_from_transposed(narrow_t);
  expect_zero_padding(packed, "pack_from_transposed");
}

TEST(MlpPacked, ForwardMatchesNaiveReferenceNetwork) {
  const Mlp net{{22, 64, 64, 21}, 99};
  Rng rng{23};
  const Matrix input = random_matrix(rng, 5, 22);

  // Reference: the seed forward pass on the raw row-major weights.
  Matrix ref = input;
  for (size_t l = 0; l < net.num_layers(); l++) {
    Matrix next;
    oracle::naive_matmul(ref, net.weights()[l], next);
    add_row_bias(next, net.biases()[l]);
    if (l + 1 < net.num_layers()) {
      for (size_t i = 0; i < next.size(); i++) {
        next.data()[i] = std::max(next.data()[i], 0.0f);
      }
    }
    ref = std::move(next);
  }

  Matrix logits;
  net.forward(input, logits);
  expect_near(logits, ref, "packed forward vs naive reference");
}

TEST(MlpPacked, UpdateRepacksPanels) {
  Mlp net{{4, 8, 3}, 7};
  const std::vector<float> x = {0.5f, -1.0f, 2.0f, 0.25f};
  const std::vector<float> before = net.forward_one(x);
  const auto nudge = [](auto& weights, auto& /*biases*/) {
    weights[0].at(0, 0) += 1.0f;
  };
  net.update(nudge);
  const std::vector<float> after = net.forward_one(x);
  EXPECT_NE(before, after);

  // A fresh network with identical parameters must agree bitwise.
  Mlp twin{{4, 8, 3}, 7};
  twin.update(nudge);
  EXPECT_EQ(after, twin.forward_one(x));
}

TEST(MlpPacked, CopiedNetworksUpdateIndependently) {
  Mlp original{{4, 8, 3}, 21};
  const std::vector<float> x = {1.0f, 2.0f, -0.5f, 0.0f};
  const std::vector<float> base = original.forward_one(x);

  Mlp copy = original;
  EXPECT_EQ(copy, original);
  EXPECT_EQ(copy.forward_one(x), base);

  copy.update([](auto& weights, auto& /*biases*/) {
    for (Matrix& w : weights) {
      w.scale_inplace(0.5f);
    }
  });
  EXPECT_NE(copy.forward_one(x), base);
  // Updating the copy must not disturb the original (or its panels).
  EXPECT_EQ(original.forward_one(x), base);
}

TEST(SoftmaxVectorized, DeterministicAndNormalizedAcrossLengths) {
  Rng rng{31};
  for (const size_t n : {1u, 2u, 7u, 8u, 9u, 16u, 21u, 40u}) {
    std::vector<float> row(n);
    for (float& v : row) {
      v = static_cast<float>(rng.normal(0.0, 3.0));
    }
    const std::vector<float> input = row;
    std::vector<float> again = row;
    softmax_inplace(row);
    softmax_inplace(again);
    EXPECT_EQ(row, again) << "length " << n;

    // Double-precision reference.
    double max_logit = -std::numeric_limits<double>::infinity();
    for (const float v : input) {
      max_logit = std::max(max_logit, static_cast<double>(v));
    }
    double total = 0.0;
    std::vector<double> ref(n);
    for (size_t i = 0; i < n; i++) {
      ref[i] = std::exp(input[i] - max_logit);
      total += ref[i];
    }
    for (size_t i = 0; i < n; i++) {
      EXPECT_NEAR(row[i], ref[i] / total, 1e-5) << "length " << n;
    }
  }
}

}  // namespace
}  // namespace puffer::nn
