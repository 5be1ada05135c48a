#ifndef PUFFER_EXP_REGISTRY_HH
#define PUFFER_EXP_REGISTRY_HH

#include <memory>
#include <string>
#include <vector>

#include "abr/abr.hh"
#include "fugu/ttp.hh"
#include "nn/mlp.hh"
#include "sim/faults.hh"

namespace puffer::exp {

/// Descriptive metadata for the Figure 5 table.
struct SchemeInfo {
  std::string name;
  std::string control;
  std::string predictor;
  std::string objective;
  std::string training;
};

/// The Figure 5 rows, verbatim structure.
const std::vector<SchemeInfo>& scheme_table();

/// Shared trained artifacts the factory draws on. Schemes that do not need a
/// model (BBA, MPC-HM, RobustMPC-HM) ignore them.
struct SchemeArtifacts {
  std::shared_ptr<const fugu::TtpModel> ttp_insitu;
  std::shared_ptr<const fugu::TtpModel> ttp_emulation;
  std::shared_ptr<const nn::Mlp> pensieve_actor;
  /// When set to an ENABLED fault plan, Fugu variants are assembled with
  /// their TTP wrapped in a fugu::ResilientPredictor (harmonic-mean
  /// fallback on injected inference failures).
  /// Null or disabled leaves every assembly byte-identical to pre-fault
  /// builds. Non-owning; must outlive the schemes built from it.
  const sim::FaultPlan* faults = nullptr;
};

/// Instantiate a scheme by name. Valid names: "Fugu", "MPC-HM",
/// "RobustMPC-HM", "BBA", "Pensieve", "Emulation-trained Fugu",
/// "Fugu-point-estimate". Throws RequirementError for unknown names or
/// missing artifacts.
std::unique_ptr<abr::AbrAlgorithm> make_scheme(const std::string& name,
                                               const SchemeArtifacts& artifacts);

}  // namespace puffer::exp

#endif  // PUFFER_EXP_REGISTRY_HH
