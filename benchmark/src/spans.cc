#include "spans.hh"

#include "abr/bba.hh"
#include "abr/mpc_abr.hh"
#include "abr/throughput_predictors.hh"
#include "fugu/batch_ttp.hh"
#include "obs/trace.hh"
#include "util/require.hh"

namespace puffer::bench {

namespace {

/// Lane group of the benchmark's own spans in the Chrome trace.
constexpr int kSpanTracePid = 3;

bool is_container(const Layer layer) {
  return layer == Layer::kSession || layer == Layer::kDay;
}

const char* scheme_name(const SchemeTag scheme) {
  switch (scheme) {
    case SchemeTag::kFugu: return "fugu";
    case SchemeTag::kMpcHm: return "mpc_hm";
    case SchemeTag::kBba: return "bba";
    default: return "";
  }
}

}  // namespace

const char* layer_name(const Layer layer) {
  switch (layer) {
    case Layer::kSession: return "exp.session";
    case Layer::kDay: return "exp.day";
    case Layer::kPlan: return "exp.plan";
    case Layer::kConnect: return "net.connect";
    case Layer::kTransfer: return "net.transfer";
    case Layer::kIdle: return "net.idle";
    case Layer::kStream: return "sim.stream";
    case Layer::kDecide: return "abr.decide";
    case Layer::kFeedback: return "abr.feedback";
    case Layer::kHm: return "abr.hm";
    case Layer::kTtp: return "fugu.ttp";
    case Layer::kFold: return "exp.fold";
    case Layer::kFleet: return "sim.fleet";
    case Layer::kTelemetry: return "exp.telemetry";
    case Layer::kArmTrial: return "exp.arm_trial";
    case Layer::kEval: return "fugu.eval";
    case Layer::kTrain: return "fugu.train";
    case Layer::kCheckpoint: return "exp.checkpoint";
    case Layer::kCount: break;
  }
  return "?";
}

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

int32_t SpanRecorder::open(const Layer layer, const SchemeTag scheme) {
  Span span;
  span.parent = current_;
  span.session = session_;
  span.layer = layer;
  span.scheme = scheme;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - epoch_)
                      .count();
  current_ = static_cast<int32_t>(spans_.size());
  spans_.push_back(span);
  return current_;
}

void SpanRecorder::close(const int32_t id) {
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - epoch_)
                    .count();
  current_ = span.parent;
}

SpanSummary summarize(const SpanRecorder& recorder) {
  const std::vector<Span>& spans = recorder.spans();
  // Direct children's time per span; children close before their parent,
  // so one pass over the spans sees every child.
  std::vector<int64_t> child_ns(spans.size(), 0);
  std::vector<int64_t> predictor_ns(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      const int64_t duration = span.end_ns - span.start_ns;
      child_ns[static_cast<size_t>(span.parent)] += duration;
      if (span.layer == Layer::kHm || span.layer == Layer::kTtp) {
        predictor_ns[static_cast<size_t>(span.parent)] += duration;
      }
    }
  }
  SpanSummary summary;
  for (size_t i = 0; i < spans.size(); i++) {
    const Span& span = spans[i];
    const double duration_ms =
        static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    const double self_ms =
        duration_ms - static_cast<double>(child_ns[i]) / 1e6;
    LayerStats& stats = summary.layers[static_cast<size_t>(span.layer)];
    stats.calls++;
    stats.busy_ms += duration_ms;
    stats.self_ms += self_ms;
    stats.durations_us.push_back(duration_ms * 1e3);
    if (!is_container(span.layer)) {
      summary.attributed_ms += self_ms;
    }
    if (span.layer == Layer::kDecide) {
      summary.decide_ms[static_cast<size_t>(span.scheme)] += duration_ms;
      if (span.scheme == SchemeTag::kFugu || span.scheme == SchemeTag::kMpcHm) {
        summary.plan_us.push_back(
            (duration_ms - static_cast<double>(predictor_ns[i]) / 1e6) * 1e3);
      }
    }
  }
  return summary;
}

bool write_chrome_trace(const SpanRecorder& recorder, const std::string& path) {
  obs::TraceWriter trace;
  trace.process_name(kSpanTracePid, "benchmark spans (host wall clock)");
  trace.thread_name(kSpanTracePid, 0, "runner");
  const std::vector<Span>& spans = recorder.spans();
  for (size_t i = 0; i < spans.size(); i++) {
    const Span& span = spans[i];
    obs::TraceArgs args;
    args.add("id", static_cast<int64_t>(i));
    args.add("parent", static_cast<int64_t>(span.parent));
    args.add("session", static_cast<int64_t>(span.session));
    if (span.scheme != SchemeTag::kNone) {
      args.add("scheme", scheme_name(span.scheme));
    }
    trace.complete(kSpanTracePid, 0, layer_name(span.layer),
                   static_cast<double>(span.start_ns) / 1e3,
                   static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                   args.str());
  }
  return trace.write_file(path);
}

exp::SchemeFactory traced_factory(std::shared_ptr<const fugu::TtpModel> model,
                                  SpanRecorder& recorder) {
  return [model = std::move(model), &recorder](const std::string& name)
             -> std::unique_ptr<abr::AbrAlgorithm> {
    if (name == "Fugu") {
      return std::make_unique<TimedAbr>(
          std::make_unique<abr::MpcAbr>(
              name, std::make_unique<TimedPredictor>(
                        std::make_unique<fugu::BatchTtpPredictor>(model),
                        recorder, Layer::kTtp)),
          recorder, SchemeTag::kFugu);
    }
    if (name == "MPC-HM") {
      return std::make_unique<TimedAbr>(
          std::make_unique<abr::MpcAbr>(
              name, std::make_unique<TimedPredictor>(
                        std::make_unique<abr::HarmonicMeanPredictor>(),
                        recorder, Layer::kHm)),
          recorder, SchemeTag::kMpcHm);
    }
    require(name == "BBA", "traced_factory: unsupported scheme '" + name + "'");
    return std::make_unique<TimedAbr>(std::make_unique<abr::Bba>(), recorder,
                                      SchemeTag::kBba);
  };
}

}  // namespace puffer::bench
