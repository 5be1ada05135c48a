// Traced runs: per-layer time attributed by spans the benchmark records
// around its own calls into the repo's public API (src/ carries no span of
// its own). Each workload repeats a traced pass until the requested seconds
// are spent and reports the pass with the median wall time; every pass is
// audited bitwise against an untraced one-thread reference.
//
//   fleet-mixed, fleet-bba: a serial runner that mirrors the trial loop
//     (make_session_plan + RCT draw, TcpSender/BbrModel, the StreamSession
//     async protocol, fold_stream_outcome) with decorated schemes.
//   fleet-contention: a one-thread run_fleet_trial with decorated schemes
//     (decorated Fugu cannot be coalesced, so its inference runs inline,
//     which the fleet contract makes bit-identical).
//   campaign: one campaign day through its public calls (collect_telemetry,
//     run_trial per arm, evaluate_ttp, warm-started train_ttp, save_dataset/
//     save_ttp), audited against exp::Campaign's own day 0.

#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <sstream>

#include "bench.hh"
#include "exp/insitu.hh"
#include "exp/session_task.hh"
#include "fugu/dataset.hh"
#include "net/bbr.hh"
#include "obs/prof.hh"
#include "sim/arrivals.hh"
#include "spans.hh"
#include "util/require.hh"

namespace puffer::bench {

namespace {

/// Upper bound on traced passes per run: each keeps its spans in memory
/// (about 2 MB per fleet pass).
constexpr size_t kMaxPasses = 40;
constexpr int kEngineRepetitions = 5;
/// Virtual gap between a no-op task's decisions: one chunk of playback,
/// which is what paces a streaming session's decisions in steady state.
constexpr double kChunkSeconds = 2.002;

/// Every per-layer metric, in report order. Every traced run reports all of
/// them; a layer a workload does not exercise reads 0.
const std::vector<std::pair<const char*, const char*>>& per_layer_table() {
  static const std::vector<std::pair<const char*, const char*>> table = {
      {"abr.decide.calls", "count"},
      {"abr.decide.busy_ms", "ms"},
      {"abr.decide.p50_us", "us"},
      {"abr.decide.p99_us", "us"},
      {"abr.decide.fugu.busy_ms", "ms"},
      {"abr.decide.mpc_hm.busy_ms", "ms"},
      {"abr.decide.bba.busy_ms", "ms"},
      {"abr.plan.busy_ms", "ms"},
      {"abr.plan.p50_us", "us"},
      {"abr.plan.p99_us", "us"},
      {"abr.hm.busy_ms", "ms"},
      {"abr.feedback.busy_ms", "ms"},
      {"fugu.ttp.calls", "count"},
      {"fugu.ttp.rows", "count"},
      {"fugu.ttp.busy_ms", "ms"},
      {"fugu.ttp.rows_per_s", "rows/s"},
      {"nn.gemm_ms", "ms"},
      {"nn.gemm.pack_ms", "ms"},
      {"net.transfer.calls", "count"},
      {"net.transfer.busy_ms", "ms"},
      {"net.transfer.p50_us", "us"},
      {"net.transfer.p99_us", "us"},
      {"net.transfer.us_per_sim_s", "us/s"},
      {"net.idle.calls", "count"},
      {"net.idle.busy_ms", "ms"},
      {"net.idle.us_per_sim_s", "us/s"},
      {"net.shared.offered_mb", "MB"},
      {"net.shared.lost_ratio", "ratio"},
      {"net.shared.fairness_mean", "ratio"},
      {"net.shared.residual_ms", "ms"},
      {"sim.stream.busy_ms", "ms"},
      {"exp.plan.busy_ms", "ms"},
      {"exp.fold.busy_ms", "ms"},
      {"sim.fleet.decisions", "count"},
      {"sim.fleet.batches", "count"},
      {"sim.fleet.gemm_calls", "count"},
      {"sim.fleet.coalesced_rows", "count"},
      {"sim.fleet.inline_decisions", "count"},
      {"sim.fleet.rows_per_gemm", "rows"},
      {"sim.fleet.peak_concurrency", "sessions"},
      {"sim.fleet.mean_concurrency", "sessions"},
      {"sim.fleet.shard_imbalance", "ratio"},
      {"exp.trial.algo_pool_hit_ratio", "ratio"},
      {"sim.engine.us_per_decision", "us"},
      {"sim.fleet.admit_ms", "ms"},
      {"sim.fleet.coalesce_ms", "ms"},
      {"sim.fleet.finish_ms", "ms"},
      {"sim.fleet.record_ms", "ms"},
      {"exp.telemetry.busy_ms", "ms"},
      {"exp.arm_trial.busy_ms", "ms"},
      {"fugu.eval.busy_ms", "ms"},
      {"fugu.train.busy_ms", "ms"},
      {"fugu.train.examples", "count"},
      {"fugu.train.examples_per_s", "examples/s"},
      {"exp.checkpoint.busy_ms", "ms"},
      {"exp.checkpoint.mb", "MB"},
      {"exp.campaign.day_ms", "ms"},
      {"exp.campaign.checkpoint_ms", "ms"},
      {"trace.wall_ms", "ms"},
      {"trace.unattributed_share", "ratio"},
      {"trace.overhead_ratio", "ratio"},
  };
  return table;
}

using Values = std::map<std::string, double>;

double ratio(const double numerator, const double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

double percentile_us(const std::vector<double>& durations_us, const double q) {
  return durations_us.empty() ? 0.0 : quantile(durations_us, q);
}

double prof_ms(const std::vector<obs::ProfScopeStats>& merged,
               const std::string& name) {
  const obs::ProfScopeStats* scope = obs::ProfSnapshot::find(merged, name);
  return scope != nullptr ? static_cast<double>(scope->total_ns) / 1e6 : 0.0;
}

int64_t metric_value(const obs::MetricSnapshot& snapshot,
                     const std::string& name) {
  const obs::MetricSnapshot::Metric* metric = snapshot.find(name);
  return metric != nullptr ? metric->value : 0;
}

/// One traced pass: its spans, wall time and the perf-plane scopes that ran
/// inside it (nn.gemm, fleet.finish).
struct Pass {
  std::unique_ptr<SpanRecorder> spans = std::make_unique<SpanRecorder>();
  double wall_s = 0.0;
  std::vector<obs::ProfScopeStats> prof;
  std::vector<int64_t> decisions;  ///< per session plan (serial runner)
};

/// Runs `traced` (which fills a Pass's spans) until `seconds` are spent, at
/// least once; returns the passes sorted by wall time.
std::vector<Pass> run_passes(const double seconds,
                             const std::function<void(Pass&)>& traced) {
  std::vector<Pass> passes;
  const auto start = Clock::now();
  do {
    Pass pass;
    obs::prof_reset();
    obs::set_prof_enabled(true);
    const auto pass_start = Clock::now();
    traced(pass);
    pass.wall_s = seconds_since(pass_start);
    pass.prof = obs::prof_snapshot().merged();
    obs::set_prof_enabled(false);
    passes.push_back(std::move(pass));
  } while (seconds_since(start) < seconds && passes.size() < kMaxPasses);
  std::sort(passes.begin(), passes.end(), [](const Pass& a, const Pass& b) {
    return a.wall_s < b.wall_s;
  });
  return passes;
}

/// Metrics every traced runner derives from its spans.
void span_metrics(const Pass& pass, const double reference_s, Values& values,
                  Report& report) {
  const SpanRecorder& recorder = *pass.spans;
  const SpanSummary summary = summarize(recorder);
  const LayerStats& decide = summary[Layer::kDecide];
  values["abr.decide.calls"] = static_cast<double>(decide.calls);
  values["abr.decide.busy_ms"] = decide.busy_ms;
  values["abr.decide.p50_us"] = percentile_us(decide.durations_us, 0.5);
  values["abr.decide.p99_us"] = percentile_us(decide.durations_us, 0.99);
  values["abr.decide.fugu.busy_ms"] =
      summary.decide_ms[static_cast<size_t>(SchemeTag::kFugu)];
  values["abr.decide.mpc_hm.busy_ms"] =
      summary.decide_ms[static_cast<size_t>(SchemeTag::kMpcHm)];
  values["abr.decide.bba.busy_ms"] =
      summary.decide_ms[static_cast<size_t>(SchemeTag::kBba)];
  double plan_ms = 0.0;
  for (const double us : summary.plan_us) {
    plan_ms += us / 1e3;
  }
  values["abr.plan.busy_ms"] = plan_ms;
  values["abr.plan.p50_us"] = percentile_us(summary.plan_us, 0.5);
  values["abr.plan.p99_us"] = percentile_us(summary.plan_us, 0.99);
  values["abr.hm.busy_ms"] = summary[Layer::kHm].busy_ms;
  values["abr.feedback.busy_ms"] = summary[Layer::kFeedback].busy_ms;

  const LayerStats& ttp = summary[Layer::kTtp];
  const auto ttp_rows = static_cast<double>(recorder.query_rows(Layer::kTtp));
  values["fugu.ttp.calls"] =
      static_cast<double>(recorder.query_calls(Layer::kTtp));
  values["fugu.ttp.rows"] = ttp_rows;
  values["fugu.ttp.busy_ms"] = ttp.busy_ms;
  values["fugu.ttp.rows_per_s"] = ratio(ttp_rows, ttp.busy_ms / 1e3);
  values["nn.gemm_ms"] = prof_ms(pass.prof, "nn.gemm");
  values["nn.gemm.pack_ms"] = prof_ms(pass.prof, "nn.gemm.pack");

  const LayerStats& transfer = summary[Layer::kTransfer];
  values["net.transfer.calls"] = static_cast<double>(transfer.calls);
  values["net.transfer.busy_ms"] = transfer.busy_ms;
  values["net.transfer.p50_us"] = percentile_us(transfer.durations_us, 0.5);
  values["net.transfer.p99_us"] = percentile_us(transfer.durations_us, 0.99);
  values["net.transfer.us_per_sim_s"] =
      ratio(transfer.busy_ms * 1e3, recorder.virtual_s(Layer::kTransfer));
  const LayerStats& idle = summary[Layer::kIdle];
  values["net.idle.calls"] = static_cast<double>(idle.calls);
  values["net.idle.busy_ms"] = idle.busy_ms;
  values["net.idle.us_per_sim_s"] =
      ratio(idle.busy_ms * 1e3, recorder.virtual_s(Layer::kIdle));

  values["sim.stream.busy_ms"] = summary[Layer::kStream].self_ms;
  values["exp.plan.busy_ms"] = summary[Layer::kPlan].busy_ms;
  values["exp.fold.busy_ms"] = summary[Layer::kFold].busy_ms;
  values["exp.telemetry.busy_ms"] = summary[Layer::kTelemetry].busy_ms;
  values["exp.arm_trial.busy_ms"] = summary[Layer::kArmTrial].busy_ms;
  values["fugu.eval.busy_ms"] = summary[Layer::kEval].busy_ms;
  values["fugu.train.busy_ms"] = summary[Layer::kTrain].busy_ms;
  values["exp.checkpoint.busy_ms"] = summary[Layer::kCheckpoint].busy_ms;

  const double wall_ms = pass.wall_s * 1e3;
  values["trace.wall_ms"] = wall_ms;
  values["trace.unattributed_share"] =
      ratio(wall_ms - summary.attributed_ms, wall_ms);
  values["trace.overhead_ratio"] = ratio(pass.wall_s, reference_s);

  // The full layer table (self time adds up to the attributed wall).
  for (size_t l = 0; l < kNumLayers; l++) {
    const LayerStats& stats = summary.layers[l];
    if (stats.calls == 0) {
      continue;
    }
    char text[128];
    std::snprintf(text, sizeof(text), "calls=%lld busy_ms=%.3f self_ms=%.3f",
                  static_cast<long long>(stats.calls), stats.busy_ms,
                  stats.self_ms);
    report.info.emplace_back(
        std::string{"layer."} + layer_name(static_cast<Layer>(l)), text);
  }
}

void emit(const Values& values, Report& report) {
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const auto& entry : per_layer_table()) {
      known = known || name == entry.first;
    }
    require(known, "traced run produced unlisted metric " + name);
  }
  for (const auto& [name, unit] : per_layer_table()) {
    const auto it = values.find(name);
    report.add(name, it != values.end() ? it->second : 0.0, unit);
  }
}

void write_trace(const Pass& pass, const Workload& workload,
                 const Options& opts, Report& report) {
  if (opts.out_dir.empty()) {
    return;
  }
  const std::string path = opts.out_dir + "/" + workload.name + ".trace.json";
  if (write_chrome_trace(*pass.spans, path)) {
    report.info.emplace_back("trace_file", path);
  }
}

// --- fleet workloads ---------------------------------------------------------

/// One session of the serial runner: SessionTask's life cycle through the
/// StreamSession async protocol, so the sender's transfers and idles can be
/// timed apart from the session machine. Returns the session's decisions.
int64_t run_session(const exp::SessionPlan& plan, abr::AbrAlgorithm& algo,
                    const exp::TrialConfig& trial, exp::SchemeResult& result,
                    SpanRecorder& spans) {
  result.consort.sessions++;
  if (plan.session.incompatible_or_bounce) {
    result.consort.streams++;
    result.consort.never_began++;
    return 0;
  }
  Rng run_rng{plan.run_seed};
  algo.reset_session();
  std::optional<net::TcpSender> sender;
  {
    const ScopedSpan span{spans, Layer::kConnect};
    sender.emplace(*plan.path, std::make_unique<net::BbrModel>(),
                   net::TcpSender::default_queue_capacity(*plan.path));
  }
  const auto timed_net = [&](const Layer layer, const auto& call) {
    const ScopedSpan span{spans, layer};
    const double before_s = sender->now();
    call();
    spans.add_virtual_s(layer, sender->now() - before_s);
  };
  timed_net(Layer::kTransfer, [&] { sim::send_preamble(*sender); });

  int64_t decisions = 0;
  double duration_s = 0.0;
  bool any_considered = false;
  for (int k = 0; k < plan.session.num_streams; k++) {
    const auto stream_index = static_cast<size_t>(k);
    sim::StreamOutcome outcome;
    {
      const ScopedSpan span{spans, Layer::kStream};
      media::VbrVideoSource video{
          media::default_channels()[static_cast<size_t>(
              plan.channels[stream_index])],
          plan.video_seeds[stream_index]};
      sim::StreamSession stream{*sender,
                                algo,
                                video,
                                /*first_chunk=*/0,
                                plan.stream_behaviors[stream_index],
                                run_rng,
                                trial.stream};
      using Step = sim::StreamSession::PrepareStep;
      for (;;) {
        double wait_s = 0.0;
        Step step = stream.prepare_chunk_async(wait_s);
        if (step == Step::kWait) {
          timed_net(Layer::kIdle,
                    [&] { sender->idle_until(sender->now() + wait_s); });
          step = stream.finish_wait();
        }
        if (step == Step::kDone) {
          break;
        }
        const double bytes = stream.begin_chunk();
        decisions++;
        net::TransferResult transfer;
        timed_net(Layer::kTransfer, [&] { transfer = sender->transfer(bytes); });
        stream.complete_chunk(transfer);
      }
      outcome = stream.take_outcome();
    }
    const ScopedSpan span{spans, Layer::kFold};
    exp::detail::fold_stream_outcome(outcome, run_rng, trial, result,
                                     duration_s, any_considered);
  }
  if (any_considered) {
    result.session_durations_s.push_back(duration_s);
  }
  return decisions;
}

/// The serial runner: the RCT trial loop of run_trial, session by session.
exp::TrialResult run_serial(const exp::TrialConfig& trial,
                            const exp::SchemeFactory& factory,
                            SpanRecorder& spans,
                            std::vector<int64_t>& decisions) {
  require(!trial.paired_paths, "serial runner: RCT trials only");
  const std::unique_ptr<net::PathGenerator> paths =
      net::make_path_generator(trial.scenario);
  const sim::UserModel users{trial.seed};
  const Rng master{trial.seed};
  std::vector<std::unique_ptr<abr::AbrAlgorithm>> algorithms;
  exp::TrialResult result;
  for (const std::string& name : trial.schemes) {
    algorithms.push_back(factory(name));
    result.schemes.emplace_back();
    result.schemes.back().scheme = name;
  }
  const int64_t plans = static_cast<int64_t>(trial.sessions_per_scheme) *
                        static_cast<int64_t>(trial.schemes.size());
  decisions.assign(static_cast<size_t>(plans), 0);
  for (int64_t s = 0; s < plans; s++) {
    spans.set_session(static_cast<int32_t>(s));
    const ScopedSpan session{spans, Layer::kSession};
    exp::SessionPlan plan;
    size_t scheme = 0;
    {
      const ScopedSpan span{spans, Layer::kPlan};
      Rng session_rng = master.split(static_cast<uint64_t>(s));
      plan = exp::make_session_plan(session_rng, users, *paths);
      scheme = static_cast<size_t>(session_rng.uniform_int(
          0, static_cast<int64_t>(trial.schemes.size()) - 1));
    }
    decisions[static_cast<size_t>(s)] = run_session(
        plan, *algorithms[scheme], trial, result.schemes[scheme], spans);
  }
  return result;
}

/// A fleet task that only counts down its decisions, so an engine run over
/// these times queues, shards and bookkeeping alone.
class NoopTask final : public sim::FleetTask {
 public:
  explicit NoopTask(const int64_t decisions) : left_(decisions) {}
  Step prepare() override {
    return left_ > 0 ? Step::kDecision : Step::kDone;
  }
  bool stage(fugu::TtpInferenceBatch& /*batch*/) override { return false; }
  void finish_chunk() override {
    elapsed_s_ += kChunkSeconds;
    left_--;
  }
  [[nodiscard]] double elapsed_s() const override { return elapsed_s_; }

 private:
  int64_t left_;
  double elapsed_s_ = 0.0;
};

/// FleetEngine::run over no-op tasks with the workload's arrival process and
/// per-session decision counts, on `config`'s threads and shards.
double engine_us_per_decision(const exp::FleetTrialConfig& config,
                              const std::vector<int64_t>& decisions) {
  Rng arrival_rng = Rng{config.trial.seed}.split("fleet-arrivals");
  const std::unique_ptr<sim::ArrivalProcess> process =
      sim::make_arrival_process(config.arrivals);
  const std::vector<double> arrivals = sim::sample_arrivals(
      *process, arrival_rng, static_cast<int64_t>(decisions.size()));
  sim::FleetConfig engine_config;
  engine_config.num_threads = config.trial.num_threads;
  engine_config.num_shards = config.num_shards;
  const sim::FleetEngine engine{engine_config};
  int64_t total = 0;
  for (const int64_t n : decisions) {
    total += n;
  }
  std::vector<double> per_decision_us;
  for (int rep = 0; rep < kEngineRepetitions; rep++) {
    const auto start = Clock::now();
    static_cast<void>(engine.run(
        arrivals, [&decisions](const int64_t session, const int /*shard*/) {
          return std::make_unique<NoopTask>(
              decisions[static_cast<size_t>(session)]);
        }));
    per_decision_us.push_back(seconds_since(start) * 1e6 /
                              static_cast<double>(std::max<int64_t>(1, total)));
  }
  return median(per_decision_us);
}

Report trace_fleet(const Workload& workload, const Options& opts) {
  const bool contention = workload.fleet.contention.group_size > 1;
  const exp::FleetTrialConfig serial = on_threads(workload.fleet, 1);
  const exp::FleetTrialConfig parallel =
      on_threads(workload.fleet, opts.threads);
  const std::shared_ptr<const fugu::TtpModel> model = fleet_model();
  const exp::SchemeFactory factory = fleet_factory(model);
  Report report;

  // Untraced one-thread reference, after one warm-up: the audit baseline and
  // the denominator of the tracing overhead.
  static_cast<void>(exp::run_fleet_trial(serial, factory));
  const auto start = Clock::now();
  const exp::FleetTrialResult reference = exp::run_fleet_trial(serial, factory);
  const double reference_s = seconds_since(start);

  // Profiled T-thread run: the engine's counters and perf-plane scopes.
  obs::prof_reset();
  obs::set_prof_enabled(true);
  const exp::FleetTrialResult profiled =
      exp::run_fleet_trial(parallel, factory);
  const obs::ProfSnapshot engine_prof = obs::prof_snapshot();
  obs::set_prof_enabled(false);
  audit_trial(reference.trial, profiled.trial, report);

  std::vector<Pass> passes = run_passes(opts.seconds, [&](Pass& pass) {
    const exp::SchemeFactory traced = traced_factory(model, *pass.spans);
    exp::TrialResult trial;
    if (contention) {
      const ScopedSpan span{*pass.spans, Layer::kFleet};
      trial = exp::run_fleet_trial(serial, traced).trial;
    } else {
      trial = run_serial(serial.trial, traced, *pass.spans, pass.decisions);
    }
    audit_trial(reference.trial, trial, report);
  });
  const Pass& pass = passes[passes.size() / 2];

  Values values;
  span_metrics(pass, reference_s, values, report);

  const sim::FleetRunStats& fleet = profiled.fleet;
  values["sim.fleet.decisions"] = static_cast<double>(fleet.decisions);
  values["sim.fleet.batches"] =
      static_cast<double>(metric_value(fleet.metrics, "fleet.batches"));
  values["sim.fleet.gemm_calls"] = static_cast<double>(fleet.gemm_calls);
  values["sim.fleet.coalesced_rows"] =
      static_cast<double>(fleet.coalesced_rows);
  values["sim.fleet.inline_decisions"] =
      static_cast<double>(fleet.inline_decisions);
  values["sim.fleet.rows_per_gemm"] =
      ratio(static_cast<double>(fleet.coalesced_rows),
            static_cast<double>(fleet.gemm_calls));
  values["sim.fleet.peak_concurrency"] = fleet.load.peak();
  values["sim.fleet.mean_concurrency"] = fleet.load.time_weighted_mean();
  std::vector<double> shard_ms;
  for (const obs::ProfThreadSnapshot& thread : engine_prof.threads) {
    const obs::ProfScopeStats* shard =
        obs::ProfSnapshot::find(thread.scopes, "fleet.shard");
    if (shard != nullptr) {
      shard_ms.push_back(static_cast<double>(shard->total_ns) / 1e6);
    }
  }
  if (!shard_ms.empty()) {
    double sum = 0.0;
    for (const double ms : shard_ms) {
      sum += ms;
    }
    values["sim.fleet.shard_imbalance"] =
        ratio(*std::max_element(shard_ms.begin(), shard_ms.end()),
              sum / static_cast<double>(shard_ms.size()));
  }
  const double pool_hits = static_cast<double>(
      metric_value(profiled.metrics, "trial.algo_pool_hits"));
  const double pool_misses = static_cast<double>(
      metric_value(profiled.metrics, "trial.algo_pool_misses"));
  values["exp.trial.algo_pool_hit_ratio"] =
      ratio(pool_hits, pool_hits + pool_misses);
  const std::vector<obs::ProfScopeStats> engine_scopes = engine_prof.merged();
  values["sim.fleet.admit_ms"] = prof_ms(engine_scopes, "fleet.admit");
  values["sim.fleet.coalesce_ms"] = prof_ms(engine_scopes, "fleet.coalesce");
  values["sim.fleet.finish_ms"] = prof_ms(engine_scopes, "fleet.finish");
  values["sim.fleet.record_ms"] = prof_ms(engine_scopes, "fleet.record");

  std::vector<int64_t> decisions = pass.decisions;
  if (contention) {
    // Group tasks hide per-session counts: spread the run's decisions evenly
    // over the session plans.
    const int64_t plans = static_cast<int64_t>(
        serial.trial.sessions_per_scheme * serial.trial.schemes.size());
    decisions.assign(static_cast<size_t>(plans),
                     reference.fleet.decisions / std::max<int64_t>(1, plans));
    const double offered = static_cast<double>(
        metric_value(reference.metrics, "contention.offered_bytes"));
    const double lost = static_cast<double>(
        metric_value(reference.metrics, "contention.lost_bytes"));
    values["net.shared.offered_mb"] = offered / 1e6;
    values["net.shared.lost_ratio"] = ratio(lost, offered);
    double fairness = 0.0;
    for (const double f : reference.group_fairness) {
      fairness += f;
    }
    values["net.shared.fairness_mean"] =
        ratio(fairness, static_cast<double>(reference.group_fairness.size()));
    values["net.shared.residual_ms"] =
        prof_ms(pass.prof, "fleet.finish") - values["abr.decide.busy_ms"] -
        values["abr.feedback.busy_ms"];
  }
  values["sim.engine.us_per_decision"] =
      engine_us_per_decision(parallel, decisions);

  emit(values, report);
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(figures_digest(reference.trial)));
  report.info.emplace_back("figures_digest", digest);
  report.info.emplace_back("traced_passes", std::to_string(passes.size()));
  write_trace(pass, workload, opts, report);
  return report;
}

// --- campaign ----------------------------------------------------------------

/// Seed derivation of exp::Campaign (campaign.cc): mix64(seed ^ hash(purpose)).
/// The audit against Campaign's own day 0 fails if the two ever diverge.
uint64_t purpose_seed(const uint64_t seed, const std::string& purpose) {
  return mix64(seed ^ stable_hash(purpose));
}

std::string model_bytes(const fugu::TtpModel& model) {
  std::ostringstream out;
  exp::save_ttp(model, out);
  return out.str();
}

struct MirrorDay {
  exp::DayStats stats;
  std::string trained_model;  ///< serialized model of the retraining arm
  size_t examples_per_step = 0;
  double checkpoint_mb = 0.0;
};

/// Day 0 of `config` through the campaign's public calls, one thread.
MirrorDay mirror_day(
    const exp::CampaignConfig& config,
    const std::vector<std::shared_ptr<const fugu::TtpModel>>& deployed,
    const std::string& dir, SpanRecorder& spans) {
  constexpr int kDay = 0;
  const net::ScenarioSpec& scenario = config.scenario_for_day(kDay);
  MirrorDay out;
  exp::DayStats& stats = out.stats;
  stats.day = kDay;
  stats.scenario = scenario.key();
  const ScopedSpan day_span{spans, Layer::kDay};

  fugu::TtpDataset daily;
  {
    const ScopedSpan span{spans, Layer::kTelemetry};
    daily = exp::collect_telemetry(
        scenario, config.telemetry_sessions_per_day, kDay,
        purpose_seed(config.seed, "campaign/telemetry"), 1, config.stream);
  }
  stats.telemetry_streams = daily.size();
  fugu::DataAggregator telemetry;
  for (fugu::StreamLog& stream : daily) {
    stats.telemetry_chunks += stream.chunks.size();
    telemetry.add_stream(std::move(stream));
  }
  fugu::TtpDataset holdout;
  {
    const ScopedSpan span{spans, Layer::kTelemetry};
    holdout = exp::collect_telemetry(
        scenario, config.holdout_sessions_per_day, kDay,
        purpose_seed(config.seed, "campaign/holdout"), 1, config.stream);
  }

  const uint64_t trial_seed =
      mix64(purpose_seed(config.seed, "campaign/trial") +
            static_cast<uint64_t>(kDay) * 7919);
  for (size_t i = 0; i < config.arms.size(); i++) {
    const exp::CampaignArm& arm = config.arms[i];
    exp::TrialConfig trial_config;
    trial_config.schemes = {arm.scheme};
    trial_config.sessions_per_scheme = config.eval_sessions_per_day;
    trial_config.scenario = scenario;
    trial_config.seed = trial_seed;
    trial_config.day = kDay;
    trial_config.num_threads = 1;
    trial_config.stream = config.stream;
    exp::TrialResult trial;
    {
      const ScopedSpan span{spans, Layer::kArmTrial};
      trial = exp::run_trial(trial_config, traced_factory(deployed[i], spans));
    }
    const exp::SchemeResult& result = trial.schemes.front();
    exp::ArmDayStats arm_stats;
    arm_stats.arm = arm.name;
    arm_stats.scheme = arm.scheme;
    arm_stats.sessions = result.consort.sessions;
    arm_stats.considered = result.consort.considered;
    double watch_s = 0.0, stall_s = 0.0, ssim_weighted = 0.0, startup_s = 0.0;
    for (const auto& figures : result.considered) {
      watch_s += figures.watch_time_s;
      stall_s += figures.stall_time_s;
      ssim_weighted += figures.ssim_mean_db * figures.watch_time_s;
      startup_s += figures.startup_delay_s;
    }
    if (!result.considered.empty() && watch_s > 0.0) {
      arm_stats.ssim_mean_db = ssim_weighted / watch_s;
      arm_stats.stall_ratio = stall_s / watch_s;
      arm_stats.startup_delay_s =
          startup_s / static_cast<double>(result.considered.size());
    }
    if (deployed[i]) {
      arm_stats.has_model = true;
      if (!holdout.empty()) {
        const ScopedSpan span{spans, Layer::kEval};
        const fugu::TtpEvaluation eval =
            fugu::evaluate_ttp(*deployed[i], holdout);
        arm_stats.cross_entropy = eval.cross_entropy;
        arm_stats.top1_accuracy = eval.top1_accuracy;
        arm_stats.holdout_examples = eval.examples;
      }
    }
    stats.arms.push_back(std::move(arm_stats));
  }

  std::vector<std::pair<std::string, fugu::TtpModel>> trained;
  for (size_t i = 0; i < config.arms.size(); i++) {
    const exp::CampaignArm& arm = config.arms[i];
    if (!arm.retrain) {
      continue;
    }
    const fugu::TtpDataset window =
        telemetry.window(kDay, arm.train.window_days);
    Rng train_rng = Rng{config.seed}
                        .split("campaign/train")
                        .split(static_cast<uint64_t>(i))
                        .split(static_cast<uint64_t>(kDay));
    fugu::TtpTrainReport train_report;
    const ScopedSpan span{spans, Layer::kTrain};
    trained.emplace_back(
        arm.name, fugu::train_ttp(arm.ttp, window, kDay, arm.train, train_rng,
                                  arm.warm_start ? deployed[i].get() : nullptr,
                                  &train_report));
    out.examples_per_step = train_report.examples_per_step;
  }

  {
    const ScopedSpan span{spans, Layer::kCheckpoint};
    const std::string telemetry_path = dir + "/telemetry.bin";
    exp::save_dataset(telemetry.all(), telemetry_path);
    auto bytes = std::filesystem::file_size(telemetry_path);
    for (const auto& [name, model] : trained) {
      const std::string path = dir + "/" + name + ".ttp";
      exp::save_ttp(model, path);
      bytes += std::filesystem::file_size(path);
    }
    out.checkpoint_mb = static_cast<double>(bytes) / 1e6;
  }
  if (!trained.empty()) {
    out.trained_model = model_bytes(trained.front().second);
  }
  return out;
}

Report trace_campaign(const Workload& workload, const Options& opts) {
  exp::CampaignConfig config = workload.campaign;
  config.num_threads = 1;
  const std::string dir = work_dir("campaign-trace");
  const std::string campaign_dir = dir + "/campaign";
  const std::string mirror_dir = dir + "/mirror";
  config.checkpoint_dir = campaign_dir;
  std::string retrain_arm;
  for (const exp::CampaignArm& arm : config.arms) {
    if (arm.retrain && retrain_arm.empty()) {
      retrain_arm = arm.name;
    }
  }
  Report report;

  // Reference: exp::Campaign's own day 0 at one thread (the second of two
  // runs, so caches are warm), profiled for its campaign.* scopes.
  exp::DayStats reference_day;
  std::string reference_model;
  double reference_s = 0.0;
  std::vector<obs::ProfScopeStats> campaign_prof;
  for (int run = 0; run < 2; run++) {
    std::filesystem::remove_all(dir);
    exp::Campaign campaign{config};
    obs::prof_reset();
    obs::set_prof_enabled(true);
    const auto start = Clock::now();
    const exp::CampaignResult result = campaign.run(1);
    reference_s = seconds_since(start);
    campaign_prof = obs::prof_snapshot().merged();
    obs::set_prof_enabled(false);
    reference_day = result.days.front();
    if (!retrain_arm.empty()) {
      reference_model = model_bytes(*campaign.deployed_model(retrain_arm));
    }
  }
  std::filesystem::create_directories(mirror_dir);

  // The cold models every arm deploys on day 0 (artifact set-up, untimed).
  std::vector<std::shared_ptr<const fugu::TtpModel>> deployed(
      config.arms.size());
  for (size_t i = 0; i < config.arms.size(); i++) {
    const exp::CampaignArm& arm = config.arms[i];
    if (arm.retrain) {
      deployed[i] = std::make_shared<const fugu::TtpModel>(
          arm.ttp, purpose_seed(config.seed, "campaign/init/" + arm.name));
    }
  }

  size_t examples_per_step = 0;
  double checkpoint_mb = 0.0;
  std::vector<Pass> passes = run_passes(opts.seconds, [&](Pass& pass) {
    const MirrorDay day = mirror_day(config, deployed, mirror_dir, *pass.spans);
    report.attempted += 2;
    report.failed += day.stats == reference_day ? 0 : 1;
    report.failed += day.trained_model == reference_model ? 0 : 1;
    examples_per_step = day.examples_per_step;
    checkpoint_mb = day.checkpoint_mb;
  });
  std::filesystem::remove_all(dir);
  const Pass& pass = passes[passes.size() / 2];

  Values values;
  span_metrics(pass, reference_s, values, report);
  int epochs = 0;
  int horizon = 0;
  for (const exp::CampaignArm& arm : config.arms) {
    if (arm.name == retrain_arm) {
      epochs = arm.train.epochs;
      horizon = arm.ttp.horizon;
    }
  }
  values["fugu.train.examples"] = static_cast<double>(examples_per_step);
  values["fugu.train.examples_per_s"] =
      ratio(static_cast<double>(examples_per_step) * epochs * horizon,
            values["fugu.train.busy_ms"] / 1e3);
  values["exp.checkpoint.mb"] = checkpoint_mb;
  values["exp.campaign.day_ms"] = prof_ms(campaign_prof, "campaign.day");
  values["exp.campaign.checkpoint_ms"] =
      prof_ms(campaign_prof, "campaign.checkpoint");
  emit(values, report);
  report.info.emplace_back("traced_passes", std::to_string(passes.size()));
  write_trace(pass, workload, opts, report);
  return report;
}

}  // namespace

Report run_traced(const Workload& workload, const Options& opts) {
  obs::set_prof_enabled(false);
  return workload.kind == WorkloadKind::kFleet
             ? trace_fleet(workload, opts)
             : trace_campaign(workload, opts);
}

}  // namespace puffer::bench
