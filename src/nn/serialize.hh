#ifndef PUFFER_NN_SERIALIZE_HH
#define PUFFER_NN_SERIALIZE_HH

#include <iosfwd>
#include <optional>
#include <string>

#include "nn/mlp.hh"

namespace puffer::nn {

/// Write an Mlp (architecture + parameters) to a stream in a simple
/// self-describing binary format. Used for the paper's warm-start retraining
/// ("the weights from the previous day's model are loaded", section 4.3) and
/// for shipping trained models between training and serving code.
void save_mlp(const Mlp& net, std::ostream& out);
Mlp load_mlp(std::istream& in);

/// File forms of the above, through util/file_io.hh: the save throws on any
/// write failure; the load returns nullopt for a missing or damaged file
/// (callers retrain), so a save killed half-way never wedges later runs.
void save_mlp_file(const Mlp& net, const std::string& path);
std::optional<Mlp> try_load_mlp_file(const std::string& path);

}  // namespace puffer::nn

#endif  // PUFFER_NN_SERIALIZE_HH
