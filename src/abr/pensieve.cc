#include "abr/pensieve.hh"

#include <algorithm>

#include "media/ladder.hh"
#include "util/require.hh"

namespace puffer::abr {

void PensieveHistory::reset() {
  last_rung = 0;
  throughputs_mbps.clear();
  download_times_s.clear();
}

void PensieveHistory::record(const double throughput_mbps,
                             const double download_time_s, const int rung) {
  throughputs_mbps.push_back(throughput_mbps);
  download_times_s.push_back(download_time_s);
  while (throughputs_mbps.size() > static_cast<size_t>(kPensieveHistory)) {
    throughputs_mbps.pop_front();
  }
  while (download_times_s.size() > static_cast<size_t>(kPensieveHistory)) {
    download_times_s.pop_front();
  }
  last_rung = rung;
}

std::vector<float> pensieve_state(const PensieveHistory& history,
                                  const double buffer_s,
                                  const media::ChunkOptions& next_menu,
                                  const double remaining_signal) {
  std::vector<float> state;
  pensieve_state_into(history, buffer_s, next_menu, remaining_signal, state);
  return state;
}

void pensieve_state_into(const PensieveHistory& history, const double buffer_s,
                         const media::ChunkOptions& next_menu,
                         const double remaining_signal,
                         std::vector<float>& state) {
  state.clear();
  state.reserve(kPensieveStateDim);

  // Last selected rung, normalized to [0, 1].
  state.push_back(static_cast<float>(history.last_rung) /
                  static_cast<float>(media::kNumRungs - 1));
  // Buffer in tens of seconds (Pensieve's normalization).
  state.push_back(static_cast<float>(buffer_s / 10.0));

  // Past throughputs (Mbit/s / 20, clipped — keeps fast Puffer paths from
  // saturating activations), oldest first, zero-padded on the left.
  for (int i = 0; i < kPensieveHistory; i++) {
    const int from_end = kPensieveHistory - i;
    if (static_cast<size_t>(from_end) <= history.throughputs_mbps.size()) {
      const double raw =
          history.throughputs_mbps[history.throughputs_mbps.size() -
                                   static_cast<size_t>(from_end)];
      state.push_back(static_cast<float>(std::min(raw / 20.0, 5.0)));
    } else {
      state.push_back(0.0f);
    }
  }
  // Past download times (s / 10).
  for (int i = 0; i < kPensieveHistory; i++) {
    const int from_end = kPensieveHistory - i;
    if (static_cast<size_t>(from_end) <= history.download_times_s.size()) {
      const double raw =
          history.download_times_s[history.download_times_s.size() -
                                   static_cast<size_t>(from_end)];
      state.push_back(static_cast<float>(std::min(raw / 10.0, 2.0)));
    } else {
      state.push_back(0.0f);
    }
  }
  // Next-chunk sizes in MB.
  for (const auto& version : next_menu.versions) {
    state.push_back(static_cast<float>(
        static_cast<double>(version.size_bytes) / 1e6));
  }
  state.push_back(static_cast<float>(remaining_signal));

  require(state.size() == static_cast<size_t>(kPensieveStateDim),
          "pensieve_state: dim mismatch");
}

nn::Mlp make_pensieve_actor(const uint64_t seed) {
  nn::Mlp actor{{kPensieveStateDim, 128, 64, media::kNumRungs}, seed};
  // Small-init the policy head: training starts from a near-uniform policy,
  // which is the exploration regime policy-gradient methods expect.
  actor.update([](auto& weights, auto& /*biases*/) {
    weights.back().scale_inplace(0.05f);
  });
  return actor;
}

nn::Mlp make_pensieve_critic(const uint64_t seed) {
  nn::Mlp critic{{kPensieveStateDim, 128, 64, 1}, seed};
  critic.update([](auto& weights, auto& /*biases*/) {
    weights.back().scale_inplace(0.05f);
  });
  return critic;
}

PensieveAbr::PensieveAbr(nn::Mlp actor, std::string name)
    : actor_(std::move(actor)), name_(std::move(name)) {
  require(actor_.input_size() == kPensieveStateDim,
          "PensieveAbr: actor input dim mismatch");
  require(actor_.output_size() == media::kNumRungs,
          "PensieveAbr: actor output dim mismatch");
}

void PensieveAbr::reset_session() {
  history_.reset();
}

int PensieveAbr::choose_rung(const AbrObservation& obs,
                             const std::span<const media::ChunkOptions> lookahead) {
  require(!lookahead.empty(), "PensieveAbr: need the upcoming chunk menu");
  pensieve_state_into(history_, obs.buffer_s, lookahead[0],
                      /*remaining_signal=*/1.0, state_);
  const std::span<const float> logits = actor_.forward_one(state_, scratch_);
  // Greedy deployment policy.
  const auto best = std::max_element(logits.begin(), logits.end());
  return static_cast<int>(best - logits.begin());
}

void PensieveAbr::on_chunk_complete(const ChunkRecord& record) {
  const double throughput_mbps = static_cast<double>(record.size_bytes) * 8.0 /
                                 1e6 /
                                 std::max(record.transmission_time_s, 1e-3);
  history_.record(throughput_mbps, record.transmission_time_s, record.rung);
}

}  // namespace puffer::abr
