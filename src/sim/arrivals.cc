#include "sim/arrivals.hh"

#include "util/require.hh"

namespace puffer::sim {

ArrivalProcess::ArrivalProcess(const double rate_per_s)
    : rate_per_s_(rate_per_s) {
  require(rate_per_s_ > 0.0, "ArrivalProcess: rate must be positive");
}

double ArrivalProcess::next_arrival_s(Rng& rng, const double now_s) const {
  const double t = now_s + rng.exponential(rate_per_s_);
  // The retired thinning sampler's acceptance draw, which a homogeneous
  // process always passes; kept so every arrival time stays bit-identical.
  static_cast<void>(rng.uniform());
  return t;
}

std::unique_ptr<ArrivalProcess> make_arrival_process(const ArrivalSpec& spec) {
  require(spec.kind == "poisson",
          "make_arrival_process: unknown kind '" + spec.kind + "'");
  return std::make_unique<ArrivalProcess>(spec.rate_per_s);
}

std::vector<double> sample_arrivals(const ArrivalProcess& process, Rng& rng,
                                    const int64_t count) {
  require(count >= 0, "sample_arrivals: negative count");
  std::vector<double> arrivals;
  arrivals.reserve(static_cast<size_t>(count));
  double t = 0.0;
  for (int64_t i = 0; i < count; i++) {
    t = process.next_arrival_s(rng, t);
    arrivals.push_back(t);
  }
  return arrivals;
}

}  // namespace puffer::sim
