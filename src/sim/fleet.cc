#include "sim/fleet.hh"

#include <algorithm>
#include <queue>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fugu/batch_ttp.hh"
#include "obs/prof.hh"
#include "obs/trace.hh"
#include "util/require.hh"
#include "util/thread_pool.hh"

namespace puffer::sim {

namespace {

/// Cap on decisions fused into one inference batch.
constexpr size_t kMaxCoalescedSessions = 64;
/// Only decisions within this much virtual time of the earliest pending one
/// are fused together (keeps "concurrently deciding" honest).
constexpr double kCoalesceWindowS = 0.25;

/// The engine's per-shard sim-plane metrics. Every shard registers the
/// identical schema (same code, same order), so per-shard snapshots merge
/// positionally in ascending shard order. Counters whose value depends on
/// shard-local batch membership are marked shard_local, mirroring the
/// FleetConfig::num_shards contract for the batching counters.
struct ShardMetrics {
  obs::MetricRegistry registry;
  obs::MetricRegistry::Id arrivals;
  obs::MetricRegistry::Id sessions;
  obs::MetricRegistry::Id decisions;
  obs::MetricRegistry::Id inline_decisions;
  obs::MetricRegistry::Id coalesced_rows;
  obs::MetricRegistry::Id gemm_calls;
  obs::MetricRegistry::Id batches;
  obs::MetricRegistry::Id batch_size;
  obs::MetricRegistry::Id batch_rows;
  obs::MetricRegistry::Id queue_depth;
  obs::MetricRegistry::Id queue_depth_peak;
  obs::MetricRegistry::Id ttp_groups;
  obs::MetricRegistry::Id ttp_max_forward_rows;
  obs::MetricRegistry::Id faults_injected;

  ShardMetrics() {
    const obs::MetricOptions local{.shard_local = true};
    arrivals = registry.counter("fleet.arrivals");
    sessions = registry.counter("fleet.sessions");
    decisions = registry.counter("fleet.decisions");
    inline_decisions = registry.counter("fleet.inline_decisions", local);
    coalesced_rows = registry.counter("fleet.coalesced_rows", local);
    gemm_calls = registry.counter("fleet.gemm_calls", local);
    batches = registry.counter("fleet.batches", local);
    batch_size = registry.histogram(
        "fleet.batch_size", {1, 2, 4, 8, 16, 32, 64, 128}, local);
    batch_rows = registry.histogram(
        "fleet.batch_rows", {1, 8, 32, 128, 512, 2048, 8192}, local);
    queue_depth = registry.histogram(
        "fleet.queue_depth",
        {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536},
        local);
    queue_depth_peak = registry.gauge("fleet.queue_depth_peak", local);
    ttp_groups = registry.gauge("fleet.ttp.groups", local);
    ttp_max_forward_rows =
        registry.gauge("fleet.ttp.max_forward_rows", local);
    // Fault events are pure per-session functions of the fault plan's seed,
    // so their count is partition-invariant (class plain).
    faults_injected = registry.counter("faults.injected");
  }
};

/// A session parked at a decision, due on the shard's timeline at `time_s`.
/// Ties break on the shard-local session slot; slots are assigned in
/// ascending global-session order, so the pop order — and therefore batch
/// membership — is the single-queue order restricted to the shard.
struct Event {
  double time_s = 0.0;
  int64_t slot = 0;

  bool operator>(const Event& other) const {
    if (time_s != other.time_s) {
      return time_s > other.time_s;
    }
    return slot > other.slot;
  }
};

using EventQueue =
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>;

/// Drive one shard's sessions to completion on the calling thread.
/// `sessions` holds the shard's global session indices in ascending order;
/// `arrivals` is the full (global) arrival-time array. The shard's load-
/// series deltas, virtual duration and metric snapshot land in `stats`,
/// which the caller owns exclusively for this shard; stats.load is left
/// un-finalized so the caller can merge shards before folding. The event
/// counts are kept once, in the shard's metric registry.
void run_shard(const std::span<const double> arrivals,
               const std::span<const int64_t> sessions,
               const FleetEngine::TaskFactory& factory,
               const FleetEngine::CompletionSink& on_complete, const int shard,
               obs::TraceWriter* const trace, FleetRunStats& stats) {
  const obs::ProfScope shard_scope{"fleet.shard"};
  std::vector<std::unique_ptr<FleetTask>> tasks(sessions.size());
  std::vector<double> arrival_time(sessions.size(), 0.0);
  EventQueue queue;
  size_t next_arrival = 0;

  ShardMetrics m;
  // Per-shard counter-lane names carry the shard index: Chrome counter
  // tracks are keyed by (pid, name), so this is what keeps shards apart.
  const std::string depth_series =
      "queue_depth shard" + std::to_string(shard);

  fugu::TtpInferenceBatch shared_batch;
  std::vector<Event> batch;
  std::vector<char> staged;     // per batch entry: rows went to shared_batch
  std::vector<char> completed;  // per batch entry: task finished
  std::vector<FleetTask::FaultEvent> fault_events;

  // Tear down a finished session: record the completion, free the task,
  // then tell the caller (on_complete).
  const auto complete = [&](const size_t slot, const double end_time) {
    tasks[slot]->record_load(stats.load, arrival_time[slot], end_time);
    stats.virtual_duration_s = std::max(stats.virtual_duration_s, end_time);
    if (trace != nullptr) {
      trace->instant(
          obs::kSimTracePid, shard, "complete", end_time * 1e6,
          obs::TraceArgs{}.add("session", sessions[slot]).str());
    }
    tasks[slot].reset();
    if (on_complete) {
      on_complete(sessions[slot], shard);
    }
  };

  // Start (or finish) a freshly-arrived task.
  const auto schedule_or_complete = [&](const size_t slot) {
    FleetTask& task = *tasks[slot];
    if (task.prepare() == FleetTask::Step::kDecision) {
      queue.push(Event{arrival_time[slot] + task.elapsed_s(),
                       static_cast<int64_t>(slot)});
      return;
    }
    complete(slot, arrival_time[slot] + task.elapsed_s());
  };

  while (!queue.empty() || next_arrival < sessions.size()) {
    // Admit every arrival due before the next pending decision.
    if (!queue.empty() && next_arrival < sessions.size() &&
        arrivals[static_cast<size_t>(sessions[next_arrival])] >
            queue.top().time_s) {
      // fall through to decision processing
    } else if (next_arrival < sessions.size()) {
      const obs::ProfScope admit_scope{"fleet.admit"};
      const size_t slot = next_arrival;
      const int64_t id = sessions[slot];
      const double t = arrivals[static_cast<size_t>(id)];
      next_arrival++;
      tasks[slot] = factory(id, shard);
      require(tasks[slot] != nullptr, "FleetEngine: factory returned null");
      arrival_time[slot] = t;
      stats.virtual_duration_s = std::max(stats.virtual_duration_s, t);
      m.registry.add(m.arrivals);
      m.registry.add(m.sessions, tasks[slot]->session_count());
      if (trace != nullptr) {
        trace->instant(obs::kSimTracePid, shard, "arrive", t * 1e6,
                       obs::TraceArgs{}.add("session", id).str());
      }
      schedule_or_complete(slot);
      continue;
    }

    // Gather a batch of near-simultaneous decisions. Tasks are independent,
    // so fusing any subset is sound; the cap and window only shape how much
    // is fused, never the per-session results.
    const auto queue_depth = static_cast<int64_t>(queue.size());
    m.registry.observe(m.queue_depth, static_cast<double>(queue_depth));
    m.registry.set_max(m.queue_depth_peak, queue_depth);
    batch.clear();
    batch.push_back(queue.top());
    queue.pop();
    const double window_end = batch.front().time_s + kCoalesceWindowS;
    while (!queue.empty() && queue.top().time_s <= window_end &&
           batch.size() < kMaxCoalescedSessions) {
      batch.push_back(queue.top());
      queue.pop();
    }
    m.registry.add(m.batches);
    m.registry.observe(m.batch_size, static_cast<double>(batch.size()));

    // Phase A (serial): stage batchable decisions into the shared batch in
    // deterministic batch order.
    shared_batch.clear();
    staged.assign(batch.size(), 0);
    int64_t batch_rows = 0;
    {
      const obs::ProfScope coalesce_scope{"fleet.coalesce"};
      const int64_t rows_before = shared_batch.total_rows();
      const int64_t forwards_before = shared_batch.total_forward_calls();
      for (size_t i = 0; i < batch.size(); i++) {
        staged[i] =
            tasks[static_cast<size_t>(batch[i].slot)]->stage(shared_batch)
                ? 1
                : 0;
      }
      // Phase B: one fused forward pass per (model, step) group across
      // every staged session.
      if (shared_batch.rows_pending() > 0) {
        shared_batch.run();
      }
      batch_rows = shared_batch.total_rows() - rows_before;
      m.registry.add(m.coalesced_rows, batch_rows);
      m.registry.add(m.gemm_calls,
                     shared_batch.total_forward_calls() - forwards_before);
      if (batch_rows > 0) {
        m.registry.observe(m.batch_rows, static_cast<double>(batch_rows));
      }
    }

    // Phase C: complete each decision and advance its session to the next
    // decision point, serially on this shard's worker (shards are the
    // engine's only parallelism).
    completed.assign(batch.size(), 0);
    {
      const obs::ProfScope finish_scope{"fleet.finish"};
      for (size_t i = 0; i < batch.size(); i++) {
        FleetTask& task = *tasks[static_cast<size_t>(batch[i].slot)];
        task.finish_chunk();
        completed[i] = task.prepare() == FleetTask::Step::kDone ? 1 : 0;
      }
    }

    // Phase D (serial, batch order): record bookkeeping and requeue.
    const obs::ProfScope record_scope{"fleet.record"};
    int64_t staged_count = 0;
    for (size_t i = 0; i < batch.size(); i++) {
      const auto slot = static_cast<size_t>(batch[i].slot);
      m.registry.add(m.decisions);
      if (staged[i] == 0) {
        m.registry.add(m.inline_decisions);
      } else {
        staged_count++;
      }
      const double t = arrival_time[slot] + tasks[slot]->elapsed_s();
      stats.virtual_duration_s = std::max(stats.virtual_duration_s, t);
      fault_events.clear();
      tasks[slot]->drain_fault_events(fault_events);
      if (!fault_events.empty()) {
        m.registry.add(m.faults_injected,
                       static_cast<int64_t>(fault_events.size()));
        if (trace != nullptr) {
          for (const FleetTask::FaultEvent& fault : fault_events) {
            trace->instant(
                obs::kSimTracePid, shard, "fault",
                (arrival_time[slot] + fault.time_s) * 1e6,
                obs::TraceArgs{}
                    .add("family", fault.family)
                    .add("session", sessions[slot])
                    .str());
          }
        }
      }
      if (completed[i] != 0) {
        complete(slot, t);
      } else {
        queue.push(Event{t, batch[i].slot});
      }
    }

    if (trace != nullptr) {
      // One span per decision batch on the shard's virtual-time lane, plus
      // a queue-depth counter sample at the batch's start.
      const double start_us = batch.front().time_s * 1e6;
      const double dur_us = (batch.back().time_s - batch.front().time_s) * 1e6;
      trace->complete(obs::kSimTracePid, shard, "batch", start_us, dur_us,
                      obs::TraceArgs{}
                          .add("size", static_cast<int64_t>(batch.size()))
                          .add("staged", staged_count)
                          .add("rows", batch_rows)
                          .str());
      trace->counter(obs::kSimTracePid, depth_series, start_us,
                     static_cast<double>(queue_depth));
    }
  }

  // The shard's TTP batch-path totals (the shared batch lives shard-wide).
  m.registry.set(m.ttp_groups, static_cast<int64_t>(shared_batch.num_groups()));
  m.registry.set(m.ttp_max_forward_rows, shared_batch.max_forward_rows());
  stats.metrics = m.registry.snapshot();
}

}  // namespace

FleetEngine::FleetEngine(FleetConfig config) : config_(std::move(config)) {
  require(config_.num_shards >= 0, "FleetEngine: num_shards must be >= 0");
}

int FleetEngine::resolved_num_threads() const {
  return ThreadPool::resolve(config_.num_threads);
}

int FleetEngine::resolved_num_shards() const {
  return config_.num_shards <= 0 ? resolved_num_threads()
                                 : config_.num_shards;
}

int FleetEngine::shard_of(const int64_t session_index) const {
  return static_cast<int>(session_index % resolved_num_shards());
}

FleetRunStats FleetEngine::run(const std::span<const double> arrivals,
                               const TaskFactory& factory,
                               const CompletionSink& on_complete) const {
  for (size_t i = 0; i + 1 < arrivals.size(); i++) {
    require(arrivals[i] <= arrivals[i + 1],
            "FleetEngine: arrivals must be sorted ascending");
  }
  const int shards = resolved_num_shards();
  const int workers = std::min(resolved_num_threads(), shards);

  // Partition sessions by index, one independent event queue per shard.
  // Each shard writes only its own pre-indexed shard_stats slot.
  std::vector<std::vector<int64_t>> members(static_cast<size_t>(shards));
  for (size_t i = 0; i < arrivals.size(); i++) {
    members[static_cast<size_t>(shard_of(static_cast<int64_t>(i)))]
        .push_back(static_cast<int64_t>(i));
  }
  std::vector<FleetRunStats> shard_stats(static_cast<size_t>(shards));
  // Per-shard trace buffers: each shard appends privately (virtual-time
  // order), the splice below replays them in ascending shard order — the
  // merged virtual plane is independent of which shard finished first.
  std::vector<obs::TraceWriter> shard_traces(
      config_.trace != nullptr ? static_cast<size_t>(shards) : 0);
  // ThreadPool::run rethrows the lowest failing shard's exception whatever
  // the wall-clock failure order, and its join orders every shard's writes
  // before the merge below.
  ThreadPool::run(shards, workers, [&](const int64_t s) {
    const auto slot = static_cast<size_t>(s);
    run_shard(arrivals, members[slot], factory, on_complete,
              static_cast<int>(s),
              shard_traces.empty() ? nullptr : &shard_traces[slot],
              shard_stats[slot]);
  });

  // Merge in ascending shard order. Counter sums and the load-series delta
  // multiset are partition-invariant, so everything except the shard-local
  // batching counters is bit-identical at any shard count.
  FleetRunStats stats;
  stats.num_shards = shards;
  stats.num_workers = workers;
  for (FleetRunStats& shard : shard_stats) {
    stats.virtual_duration_s =
        std::max(stats.virtual_duration_s, shard.virtual_duration_s);
    stats.load.merge_from(shard.load);
    stats.metrics.merge_from(shard.metrics);
    stats.shard_metrics.push_back(std::move(shard.metrics));
  }
  stats.load.finalize();
  const auto total = [&stats](const std::string_view name) {
    const obs::MetricSnapshot::Metric* metric = stats.metrics.find(name);
    require(metric != nullptr,
            "FleetEngine: no metric '" + std::string{name} + "'");
    return metric->value;
  };
  stats.sessions = total("fleet.sessions");
  stats.decisions = total("fleet.decisions");
  stats.coalesced_rows = total("fleet.coalesced_rows");
  stats.gemm_calls = total("fleet.gemm_calls");
  stats.inline_decisions = total("fleet.inline_decisions");
  if (config_.trace != nullptr) {
    config_.trace->process_name(obs::kSimTracePid, "virtual time (sim)");
    for (int s = 0; s < shards; s++) {
      config_.trace->thread_name(obs::kSimTracePid, s,
                                 "shard " + std::to_string(s));
      config_.trace->append_from(shard_traces[static_cast<size_t>(s)]);
    }
  }
  return stats;
}

}  // namespace puffer::sim
