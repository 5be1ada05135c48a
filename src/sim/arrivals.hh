#ifndef PUFFER_SIM_ARRIVALS_HH
#define PUFFER_SIM_ARRIVALS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.hh"

namespace puffer::sim {

/// Names the session-arrival process a fleet run interleaves its sessions
/// under. One kind: "poisson", homogeneous arrivals at `rate_per_s`.
struct ArrivalSpec {
  std::string kind = "poisson";
  double rate_per_s = 2.0;  ///< mean arrival rate
};

/// A homogeneous Poisson arrival process over virtual time. Stateless with
/// respect to sampling — all randomness comes from the caller's Rng — so
/// one process can serve any number of runs.
class ArrivalProcess {
 public:
  explicit ArrivalProcess(double rate_per_s);

  [[nodiscard]] double rate_per_s() const { return rate_per_s_; }

  /// Time of the next arrival strictly after `now_s`.
  [[nodiscard]] double next_arrival_s(Rng& rng, double now_s) const;

 private:
  double rate_per_s_;
};

/// Instantiate the process for `spec`; throws RequirementError for an
/// unknown kind or a non-positive rate.
std::unique_ptr<ArrivalProcess> make_arrival_process(const ArrivalSpec& spec);

/// Sample `count` arrival times starting from virtual time 0 (sorted by
/// construction — arrivals are generated in order).
std::vector<double> sample_arrivals(const ArrivalProcess& process, Rng& rng,
                                    int64_t count);

}  // namespace puffer::sim

#endif  // PUFFER_SIM_ARRIVALS_HH
