#ifndef PUFFER_BENCHMARK_SPANS_HH
#define PUFFER_BENCHMARK_SPANS_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "abr/abr.hh"
#include "abr/predictor.hh"
#include "bench.hh"

namespace puffer::bench {

/// Layer boundaries the traced runners time, named after the repo's modules.
/// Containers group a unit of work (a session, a campaign day); their self
/// time is the runners' own glue and counts as unattributed.
enum class Layer : uint8_t {
  kSession,     ///< exp.session: one trial session (container)
  kDay,         ///< exp.day: one campaign day (container)
  kPlan,        ///< exp.plan: make_session_plan + the RCT draw
  kConnect,     ///< net.connect: TcpSender + BbrModel construction
  kTransfer,    ///< net.transfer: TcpSender::transfer
  kIdle,        ///< net.idle: TcpSender::idle_until
  kStream,      ///< sim.stream: StreamSession machine + media lookahead
  kDecide,      ///< abr.decide: AbrAlgorithm::choose_rung
  kFeedback,    ///< abr.feedback: AbrAlgorithm::on_chunk_complete
  kHm,          ///< abr.hm: harmonic-mean predictor inside MPC-HM
  kTtp,         ///< fugu.ttp: BatchTtpPredictor inside Fugu
  kFold,        ///< exp.fold: take_outcome + fold_stream_outcome
  kFleet,       ///< sim.fleet: a whole run_fleet_trial (contention runner)
  kTelemetry,   ///< exp.telemetry: collect_telemetry
  kArmTrial,    ///< exp.arm_trial: run_trial for one campaign arm
  kEval,        ///< fugu.eval: evaluate_ttp
  kTrain,       ///< fugu.train: train_ttp
  kCheckpoint,  ///< exp.checkpoint: save_dataset + save_ttp
  kCount
};

inline constexpr size_t kNumLayers = static_cast<size_t>(Layer::kCount);
const char* layer_name(Layer layer);

/// Scheme tag of an abr.decide span.
enum class SchemeTag : uint8_t { kNone, kFugu, kMpcHm, kBba, kCount };

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;   ///< index of the enclosing span, -1 at the root
  int32_t session = -1;  ///< shared by every span of one session
  Layer layer = Layer::kSession;
  SchemeTag scheme = SchemeTag::kNone;
};

/// Keeps spans in memory while a traced runner runs. Single-threaded: the
/// traced runners run everything on one thread.
class SpanRecorder {
 public:
  SpanRecorder();

  int32_t open(Layer layer, SchemeTag scheme = SchemeTag::kNone);
  void close(int32_t id);
  void set_session(const int32_t session) { session_ = session; }

  /// Virtual (simulated) seconds a net.* span advanced the connection.
  void add_virtual_s(Layer layer, double seconds) {
    virtual_s_[static_cast<size_t>(layer)] += seconds;
  }
  /// One predictor call of a predictor layer answering `rows` queries.
  void add_queries(Layer layer, const int64_t rows) {
    query_calls_[static_cast<size_t>(layer)]++;
    query_rows_[static_cast<size_t>(layer)] += rows;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double virtual_s(Layer layer) const {
    return virtual_s_[static_cast<size_t>(layer)];
  }
  [[nodiscard]] int64_t query_calls(Layer layer) const {
    return query_calls_[static_cast<size_t>(layer)];
  }
  [[nodiscard]] int64_t query_rows(Layer layer) const {
    return query_rows_[static_cast<size_t>(layer)];
  }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  int32_t current_ = -1;
  int32_t session_ = -1;
  std::array<double, kNumLayers> virtual_s_{};
  std::array<int64_t, kNumLayers> query_calls_{};
  std::array<int64_t, kNumLayers> query_rows_{};
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, Layer layer,
             SchemeTag scheme = SchemeTag::kNone)
      : recorder_(recorder), id_(recorder.open(layer, scheme)) {}
  ~ScopedSpan() { recorder_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int32_t id_;
};

/// Per-layer totals of one traced pass.
struct LayerStats {
  int64_t calls = 0;
  double busy_ms = 0.0;  ///< summed span durations
  double self_ms = 0.0;  ///< durations minus direct children's
  std::vector<double> durations_us;
};

struct SpanSummary {
  std::array<LayerStats, kNumLayers> layers;
  std::array<double, static_cast<size_t>(SchemeTag::kCount)> decide_ms{};
  /// MPC self time per decision: choose_rung minus its predictor spans.
  std::vector<double> plan_us;
  double attributed_ms = 0.0;  ///< self time of every non-container span

  [[nodiscard]] const LayerStats& operator[](Layer layer) const {
    return layers[static_cast<size_t>(layer)];
  }
};

SpanSummary summarize(const SpanRecorder& recorder);

/// Chrome trace-event JSON of every span (one lane; id, parent, session and
/// scheme in each event's args). Returns false if the file cannot be written.
bool write_chrome_trace(const SpanRecorder& recorder, const std::string& path);

/// Times choose_rung (abr.decide) and on_chunk_complete (abr.feedback) of
/// the scheme it wraps; forwards everything unchanged.
class TimedAbr final : public abr::AbrAlgorithm {
 public:
  TimedAbr(std::unique_ptr<abr::AbrAlgorithm> inner, SpanRecorder& recorder,
           SchemeTag scheme)
      : inner_(std::move(inner)), recorder_(recorder), scheme_(scheme) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  void reset_session() override { inner_->reset_session(); }
  int choose_rung(const abr::AbrObservation& obs,
                  std::span<const media::ChunkOptions> lookahead) override {
    const ScopedSpan span{recorder_, Layer::kDecide, scheme_};
    return inner_->choose_rung(obs, lookahead);
  }
  void on_chunk_complete(const abr::ChunkRecord& record) override {
    const ScopedSpan span{recorder_, Layer::kFeedback};
    inner_->on_chunk_complete(record);
  }

 private:
  std::unique_ptr<abr::AbrAlgorithm> inner_;
  SpanRecorder& recorder_;
  SchemeTag scheme_;
};

/// Times an MPC scheme's transmission-time predictor (abr.hm or fugu.ttp);
/// forwards every call, predict_batch included, to the wrapped predictor.
class TimedPredictor final : public abr::TxTimePredictor {
 public:
  TimedPredictor(std::unique_ptr<abr::TxTimePredictor> inner,
                 SpanRecorder& recorder, Layer layer)
      : inner_(std::move(inner)), recorder_(recorder), layer_(layer) {}

  void begin_decision(const abr::AbrObservation& obs) override {
    const ScopedSpan span{recorder_, layer_};
    inner_->begin_decision(obs);
  }
  abr::TxTimeDistribution predict(const int step,
                                  const int64_t size_bytes) override {
    const ScopedSpan span{recorder_, layer_};
    recorder_.add_queries(layer_, 1);
    return inner_->predict(step, size_bytes);
  }
  void predict_batch(std::span<const abr::TxTimeQuery> queries,
                     std::vector<abr::TxTimeDistribution>& out) override {
    const ScopedSpan span{recorder_, layer_};
    recorder_.add_queries(layer_, static_cast<int64_t>(queries.size()));
    inner_->predict_batch(queries, out);
  }
  void on_chunk_complete(const abr::ChunkRecord& record) override {
    inner_->on_chunk_complete(record);
  }
  void reset_session() override { inner_->reset_session(); }

 private:
  std::unique_ptr<abr::TxTimePredictor> inner_;
  SpanRecorder& recorder_;
  Layer layer_;
};

/// The fleet workloads' schemes ("Fugu", "MPC-HM", "BBA", assembled exactly
/// as the registry does), each wrapped in the timing decorators above.
/// `recorder` must outlive every scheme the factory builds.
exp::SchemeFactory traced_factory(std::shared_ptr<const fugu::TtpModel> model,
                                  SpanRecorder& recorder);

}  // namespace puffer::bench

#endif  // PUFFER_BENCHMARK_SPANS_HH
