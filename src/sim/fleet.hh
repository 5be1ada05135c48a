#ifndef PUFFER_SIM_FLEET_HH
#define PUFFER_SIM_FLEET_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "obs/metrics.hh"
#include "stats/load_series.hh"

namespace puffer::fugu {
class TtpInferenceBatch;
}  // namespace puffer::fugu

namespace puffer::obs {
class TraceWriter;
}  // namespace puffer::obs

namespace puffer::sim {

/// One unit of fleet work: a session advanced decision-by-decision. The
/// engine holds each task from its arrival until prepare() reports
/// completion; between those, every call sequence is
///   prepare() -> [stage()] -> finish_chunk() -> prepare() -> ...
/// Tasks must be mutually independent (no shared mutable state): that is
/// what makes the fleet interleaving — and its thread or shard count —
/// unable to affect any task's results.
class FleetTask {
 public:
  enum class Step {
    kDecision,  ///< parked at an ABR decision; finish_chunk() completes it
    kDone,      ///< session over; the engine records completion and drops it
  };

  virtual ~FleetTask() = default;

  /// Advance to the next ABR decision point or to completion.
  virtual Step prepare() = 0;

  /// If this task's ABR scheme supports fused inference, stage the pending
  /// decision's feature rows into `batch` and return true; the engine then
  /// runs the batch before finish_chunk(). Return false to run inference
  /// inline inside finish_chunk().
  virtual bool stage(fugu::TtpInferenceBatch& batch) = 0;

  /// Complete the decision prepare() parked at (ABR choice + transfer).
  virtual void finish_chunk() = 0;

  /// Session-local elapsed virtual time; the engine maps it to the global
  /// timeline as arrival_time + elapsed_s().
  [[nodiscard]] virtual double elapsed_s() const = 0;

  /// Number of fleet sessions this task embodies. 1 for ordinary session
  /// tasks; a contention-group task co-simulating g sessions over one shared
  /// bottleneck reports g, so FleetRunStats.sessions counts sessions, not
  /// tasks.
  [[nodiscard]] virtual int64_t session_count() const { return 1; }

  /// Emit this task's +-1 concurrency deltas into the run's load series.
  /// Called once, at task completion, with the task's global arrival and end
  /// times. The default records one session spanning [arrival, end]; multi-
  /// session tasks override to emit per-member spans. LoadSeries buffers
  /// deltas and sorts at finalize(), so recording at completion instead of
  /// admission cannot change the finalized series.
  virtual void record_load(stats::LoadSeries& load, double arrival_s,
                           double end_s) const {
    load.add(arrival_s, +1);
    load.add(end_s, -1);
  }

  /// One fault the task's last step injected, stamped on the task-local
  /// virtual timeline (the engine maps it to arrival_time + time_s). The
  /// family must be a string with static storage duration.
  struct FaultEvent {
    double time_s = 0.0;
    std::string_view family;
  };

  /// Move any fault events injected since the last drain into `out`.
  /// Called by the engine after each finish_chunk() round (serial, batch
  /// order): events count into the shard's `faults.injected` metric and
  /// appear as "fault" instants on the virtual-time trace lane. Default:
  /// fault-free.
  virtual void drain_fault_events(std::vector<FaultEvent>& out) {
    (void)out;
  }
};

struct FleetConfig {
  /// Worker threads. 0 = all hardware threads. Each worker drives whole
  /// shards, so at most num_shards workers are used; with one worker the
  /// shards run in order on the calling thread; a run called from inside
  /// a ThreadPool::run job queues its shards on that run's workers. Any
  /// value yields bit-identical per-session results: tasks are independent
  /// and results land in pre-indexed slots.
  int num_threads = 1;
  /// Event-queue shards. Session s runs on shard s % num_shards; each shard
  /// owns its own event queue, virtual clock, and TTP coalescing window, and
  /// runs serially on one worker. 0 = one shard per resolved worker thread.
  /// Per-session results are bit-identical at any shard count; the batching
  /// *counters* (gemm_calls, coalesced_rows, inline_decisions) legitimately
  /// depend on shard-local batch membership and match only between runs
  /// with equal shard counts.
  int num_shards = 1;
  /// Optional virtual-time trace sink. Each shard buffers its events
  /// privately (arrivals, decision batches, queue-depth counters, all
  /// stamped in virtual time) and run() splices the buffers into this
  /// writer in ascending shard order after the join — the emitted
  /// virtual-time lanes are therefore byte-identical across repeat runs
  /// and any thread count. Tracing never touches simulation state, so
  /// results are unchanged whether or not this is set.
  obs::TraceWriter* trace = nullptr;
};

/// What a fleet run measured about itself. The five event counts are read
/// from the merged `metrics` counters of the same names (fleet.sessions,
/// fleet.decisions, ...), where the shards count them.
struct FleetRunStats {
  int64_t sessions = 0;          ///< sessions admitted
  int64_t decisions = 0;         ///< chunk decisions processed
  int64_t coalesced_rows = 0;    ///< TTP rows answered via shared batches
  int64_t gemm_calls = 0;        ///< fused forward passes run
  int64_t inline_decisions = 0;  ///< decisions that ran inference inline
  int num_shards = 0;            ///< event-queue shards the run used
  /// Worker threads the run asked for; a run nested in another
  /// ThreadPool::run job shares that run's workers instead.
  int num_workers = 0;
  double virtual_duration_s = 0.0;  ///< global time of the last event
  stats::LoadSeries load;  ///< concurrent sessions over virtual time
  /// Sim-plane metric snapshots (obs::MetricRegistry): one per shard in
  /// ascending shard order, plus their merge. Part of the determinism
  /// contract: `metrics` is bit-identical at any thread count, and its
  /// deterministic_view(false) — the non-shard-local subset — is
  /// bit-identical at any shard count too.
  obs::MetricSnapshot metrics;
  std::vector<obs::MetricSnapshot> shard_metrics;
};

/// Discrete-event fleet scheduler: interleaves thousands of concurrent
/// sessions on one virtual timeline — the simulated counterpart of Puffer's
/// ~100-sessions-day-and-night deployment (Figure 2). Sessions arrive per an
/// ArrivalProcess-sampled schedule, progress one chunk decision per event,
/// and have the TTP inference of near-simultaneous decisions fused into
/// single GEMMs. Every trial runs on it: run_trial is a fleet run with
/// arrivals so sparse that each shard streams its sessions back to back.
///
/// Sharding: the session population is partitioned by session index and
/// each shard runs its own event queue, virtual clock and coalescing window
/// serially on one worker; shards are the engine's only parallelism.
/// Sessions never interact, so a shard's event interleaving is exactly the
/// interleaving a single queue would have produced restricted to that
/// shard's sessions — per-session results, the merged load series (shards
/// merge their +1/-1 delta multisets), sessions/decisions counts and the
/// virtual duration are all bit-identical at any shard count. A failure
/// surfaces deterministically as the lowest failing shard's exception
/// (ThreadPool::run rethrows by job index).
class FleetEngine {
 public:
  /// Invoked once per arrival to build session `session_index`'s task, on
  /// the worker driving shard `shard`. Must not return null. Arrival order
  /// holds *within* a shard; with num_shards > 1, calls for sessions of
  /// different shards run concurrently, so a factory's mutable state must
  /// be per-shard (keyed by `shard`) or otherwise synchronized.
  using TaskFactory =
      std::function<std::unique_ptr<FleetTask>(int64_t session_index,
                                               int shard)>;

  /// Invoked after a session's task completed and was destroyed, on the
  /// worker driving `shard` — completion order holds within a shard only.
  /// Callers use this to stream partial results into a merge frontier
  /// (which must be lock-protected).
  using CompletionSink = std::function<void(int64_t session_index, int shard)>;

  explicit FleetEngine(FleetConfig config = {});

  /// Run one task per entry of `arrivals` (ascending global arrival
  /// times). Returns the run's statistics; per-session results are
  /// wherever the factory's tasks wrote them. `on_complete` (optional) is
  /// called once per completed session.
  FleetRunStats run(std::span<const double> arrivals,
                    const TaskFactory& factory,
                    const CompletionSink& on_complete = nullptr) const;

  [[nodiscard]] const FleetConfig& config() const { return config_; }

  /// Worker threads run() will use (num_threads resolved against hardware).
  [[nodiscard]] int resolved_num_threads() const;
  /// Event-queue shards run() will use (num_shards == 0 resolves to the
  /// worker count).
  [[nodiscard]] int resolved_num_shards() const;
  /// The shard session `session_index`'s task will run on.
  [[nodiscard]] int shard_of(int64_t session_index) const;

 private:
  FleetConfig config_;
};

}  // namespace puffer::sim

#endif  // PUFFER_SIM_FLEET_HH
