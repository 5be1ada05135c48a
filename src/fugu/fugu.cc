#include "fugu/fugu.hh"

#include "fugu/batch_ttp.hh"

namespace puffer::fugu {

std::unique_ptr<abr::MpcAbr> make_fugu(std::shared_ptr<const TtpModel> model,
                                       std::string name,
                                       const bool point_estimate) {
  // The batched predictor answers every query bit-identically to a
  // single-row forward pass, with one fused forward pass per step-network
  // per decision (and one per fleet batch inside the fleet engine).
  auto predictor =
      std::make_unique<BatchTtpPredictor>(std::move(model), point_estimate);
  return std::make_unique<abr::MpcAbr>(std::move(name), std::move(predictor));
}

}  // namespace puffer::fugu
