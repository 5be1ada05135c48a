#include "exp/registry.hh"

#include "abr/bba.hh"
#include "abr/mpc_abr.hh"
#include "abr/pensieve.hh"
#include "abr/throughput_predictors.hh"
#include "fugu/fugu.hh"
#include "fugu/resilient.hh"
#include "util/require.hh"

namespace puffer::exp {

const std::vector<SchemeInfo>& scheme_table() {
  static const std::vector<SchemeInfo> table = {
      {"BBA", "classical (prop. control)", "n/a",
       "+SSIM s.t. bitrate < limit", "n/a"},
      {"MPC-HM", "classical (MPC)", "classical (HM)",
       "+SSIM, -stalls, -dSSIM", "n/a"},
      {"RobustMPC-HM", "classical (robust MPC)", "classical (HM)",
       "+SSIM, -stalls, -dSSIM", "n/a"},
      {"Pensieve", "learned (DNN)", "n/a",
       "+bitrate, -stalls, -dbitrate", "reinforcement learning in simulation"},
      {"Emulation-trained Fugu", "classical (MPC)", "learned (DNN)",
       "+SSIM, -stalls, -dSSIM", "supervised learning in emulation"},
      {"Fugu", "classical (MPC)", "learned (DNN)",
       "+SSIM, -stalls, -dSSIM", "supervised learning in situ"},
  };
  return table;
}

std::unique_ptr<abr::AbrAlgorithm> make_scheme(const std::string& name,
                                               const SchemeArtifacts& artifacts) {
  if (name == "BBA") {
    return std::make_unique<abr::Bba>();
  }
  if (name == "MPC-HM") {
    return std::make_unique<abr::MpcAbr>(
        name, std::make_unique<abr::HarmonicMeanPredictor>());
  }
  if (name == "RobustMPC-HM") {
    return std::make_unique<abr::MpcAbr>(
        name, std::make_unique<abr::RobustThroughputPredictor>());
  }
  if (name == "Pensieve") {
    require(artifacts.pensieve_actor != nullptr,
            "make_scheme: Pensieve requires a trained actor");
    return std::make_unique<abr::PensieveAbr>(*artifacts.pensieve_actor, name);
  }
  // Fugu variants: with an enabled fault plan on the artifacts, the TTP is
  // wrapped in a ResilientPredictor (make_resilient_fugu degenerates to the
  // byte-identical plain assembly when the plan is null or disabled).
  const auto fugu_faults = [&artifacts]() -> sim::FaultPlan {
    return artifacts.faults != nullptr ? *artifacts.faults : sim::FaultPlan{};
  };
  if (name == "Fugu") {
    require(artifacts.ttp_insitu != nullptr,
            "make_scheme: Fugu requires an in-situ TTP");
    return fugu::make_resilient_fugu(artifacts.ttp_insitu, fugu_faults(),
                                     name);
  }
  if (name == "Emulation-trained Fugu") {
    require(artifacts.ttp_emulation != nullptr,
            "make_scheme: needs an emulation-trained TTP");
    return fugu::make_resilient_fugu(artifacts.ttp_emulation, fugu_faults(),
                                     name);
  }
  if (name == "Fugu-point-estimate") {
    require(artifacts.ttp_insitu != nullptr,
            "make_scheme: point-estimate Fugu requires an in-situ TTP");
    return fugu::make_resilient_fugu(artifacts.ttp_insitu, fugu_faults(),
                                     name, /*point_estimate=*/true);
  }
  require(false, "make_scheme: unknown scheme '" + name + "'");
  return nullptr;  // unreachable
}

}  // namespace puffer::exp
