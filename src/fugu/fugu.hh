#ifndef PUFFER_FUGU_FUGU_HH
#define PUFFER_FUGU_FUGU_HH

#include <memory>
#include <string>

#include "abr/mpc_abr.hh"
#include "fugu/ttp.hh"

namespace puffer::fugu {

/// Assemble the Fugu ABR scheme (paper Figure 6): the stochastic MPC
/// controller driven by a trained Transmission Time Predictor. Variants of
/// the same assembly produce the ablation arms:
///  * point_estimate=true  -> "Point Estimate Fugu" (section 4.6)
///  * a model trained with TtpTarget::kThroughput -> throughput ablation
///  * a model with empty hidden_layers -> linear ablation
///  * a model trained on emulation data -> "Emulation-trained Fugu" (Fig 11)
std::unique_ptr<abr::MpcAbr> make_fugu(std::shared_ptr<const TtpModel> model,
                                       std::string name = "Fugu",
                                       bool point_estimate = false);

}  // namespace puffer::fugu

#endif  // PUFFER_FUGU_FUGU_HH
