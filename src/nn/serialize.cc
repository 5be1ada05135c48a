#include "nn/serialize.hh"

#include <cstdint>
#include <istream>
#include <ostream>

#include "util/binary_io.hh"
#include "util/file_io.hh"
#include "util/require.hh"

namespace puffer::nn {

namespace {

constexpr uint32_t kMagic = 0x50554d4c;  // "PUML"

uint64_t read_u64(std::istream& in) {
  return puffer::read_u64(in, "load_mlp");
}

}  // namespace

void save_mlp(const Mlp& net, std::ostream& out) {
  write_u64(out, kMagic);
  write_u64(out, net.layer_sizes().size());
  for (const size_t s : net.layer_sizes()) {
    write_u64(out, s);
  }
  for (size_t l = 0; l < net.num_layers(); l++) {
    const Matrix& w = net.weights()[l];
    out.write(reinterpret_cast<const char*>(w.data()),
              static_cast<std::streamsize>(w.size() * sizeof(float)));
    const auto& b = net.biases()[l];
    out.write(reinterpret_cast<const char*>(b.data()),
              static_cast<std::streamsize>(b.size() * sizeof(float)));
  }
  require(bool(out), "save_mlp: write failed");
}

Mlp load_mlp(std::istream& in) {
  require(read_u64(in) == kMagic, "load_mlp: bad magic");
  const uint64_t depth = read_u64(in);
  require(depth >= 2 && depth < 64, "load_mlp: implausible layer count");
  std::vector<size_t> sizes(depth);
  for (auto& s : sizes) {
    s = read_u64(in);
    require(s >= 1 && s < (1u << 20), "load_mlp: implausible layer size");
  }
  // Individually-plausible layer sizes can still multiply into terabytes of
  // weights; bound the total before constructing anything so a corrupt or
  // crafted header fails with RequirementError, not bad_alloc/OOM.
  uint64_t params = 0;
  for (size_t l = 0; l + 1 < sizes.size(); l++) {
    params += static_cast<uint64_t>(sizes[l]) * sizes[l + 1] + sizes[l + 1];
  }
  require(params < (uint64_t{1} << 26), "load_mlp: implausible parameter count");
  Mlp net{sizes, /*seed=*/0};
  net.update([&in](auto& weights, auto& biases) {
    for (size_t l = 0; l < weights.size(); l++) {
      Matrix& w = weights[l];
      in.read(reinterpret_cast<char*>(w.data()),
              static_cast<std::streamsize>(w.size() * sizeof(float)));
      auto& b = biases[l];
      in.read(reinterpret_cast<char*>(b.data()),
              static_cast<std::streamsize>(b.size() * sizeof(float)));
    }
  });
  require(bool(in), "load_mlp: truncated stream");
  return net;
}

void save_mlp_file(const Mlp& net, const std::string& path) {
  write_file(path, [&net](std::ostream& out) { save_mlp(net, out); });
}

std::optional<Mlp> try_load_mlp_file(const std::string& path) {
  return try_read_file(path, load_mlp);
}

}  // namespace puffer::nn
