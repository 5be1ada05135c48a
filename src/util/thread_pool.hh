#ifndef PUFFER_UTIL_THREAD_POOL_HH
#define PUFFER_UTIL_THREAD_POOL_HH

#include <cstdint>
#include <functional>

namespace puffer {

/// Runs one batch of independent, pre-indexed jobs on a few threads. The
/// fleet engine runs one job per event-queue shard on it — determinism is
/// the caller's responsibility (jobs must write to disjoint, pre-indexed
/// slots rather than to shared accumulators).
class ThreadPool {
 public:
  /// Runs job(0) .. job(num_jobs - 1) and returns once all have finished.
  /// With one worker (num_threads < 1 is clamped to 1) or one job the jobs
  /// run in index order on the calling thread. Otherwise num_threads fresh
  /// threads each take the next unstarted index, so jobs start in
  /// ascending order. Every job runs even if another throws; afterwards
  /// the exception of the lowest failing index is rethrown, so which error
  /// a caller sees is a function of the jobs, not of thread scheduling.
  /// The return happens after every job's writes (the join is the
  /// happens-before edge).
  ///
  /// A run with more than one worker and job called from inside another
  /// run's job starts no thread: it queues its jobs on the enclosing run's
  /// workers behind their unstarted jobs, and its calling worker runs its
  /// own jobs first, then any other queued job, until its batch is done.
  /// So nested runs never put more than the outermost num_threads workers
  /// to work, and a worker that runs out of jobs helps a nested batch.
  static void run(int64_t num_jobs, int num_threads,
                  const std::function<void(int64_t)>& job);

  /// A configured worker count: num_threads itself when positive, all
  /// hardware threads when 0 or negative.
  static int resolve(int num_threads);

  /// std::thread::hardware_concurrency with a floor of 1 (the standard
  /// permits it to report 0 on restricted platforms).
  static int hardware_threads();
};

}  // namespace puffer

#endif  // PUFFER_UTIL_THREAD_POOL_HH
