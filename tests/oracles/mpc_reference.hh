#ifndef PUFFER_TESTS_ORACLES_MPC_REFERENCE_HH
#define PUFFER_TESTS_ORACLES_MPC_REFERENCE_HH

#include <span>
#include <vector>

#include "abr/mpc.hh"

namespace puffer::oracle {

/// What a reference plan decides: the rung to send, its expected total QoE
/// and the expected total QoE of every root action (index = rung).
struct ReferencePlan {
  int rung = 0;
  double value = 0.0;
  std::vector<double> root_values;
};

/// The seed's stochastic MPC: recursive value iteration over the
/// (step x buffer-bin x previous-rung) lattice with a memo, the oracle that
/// pins StochasticMpc::plan's iterative sweep.
///
/// `mpc` must just have planned (obs, lookahead): the recursion reads the
/// pruned distributions that plan used (StochasticMpc::last_distributions)
/// and the planner's config, so both sides see the same outcomes. Chunk QoE
/// is restated from the paper's section 4.4 formula, not shared with the
/// planner. The two agree up to floating-point reassociation of the
/// expectation sum.
ReferencePlan plan_reference(const abr::StochasticMpc& mpc,
                             const abr::AbrObservation& obs,
                             std::span<const media::ChunkOptions> lookahead);

}  // namespace puffer::oracle

#endif  // PUFFER_TESTS_ORACLES_MPC_REFERENCE_HH
