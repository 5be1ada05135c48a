#ifndef PUFFER_UTIL_THREAD_POOL_HH
#define PUFFER_UTIL_THREAD_POOL_HH

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.hh"
#include "util/thread_annotations.hh"

namespace puffer {

/// A small fixed-size worker pool. Jobs are run in FIFO submission order by
/// whichever worker frees up first; wait() blocks until every submitted job
/// has finished. The fleet engine runs one job per event-queue shard on it
/// — determinism is the caller's responsibility (jobs must write to
/// disjoint, pre-indexed slots rather than to shared accumulators).
///
/// Jobs may throw: the exception of the *lowest-submission-index* failing
/// job is captured and rethrown by the next wait() on the calling thread
/// (other exceptions from the same batch are dropped, and the remaining
/// jobs still run). "First" is by submission index, not by wall-clock
/// failure order, so which exception a caller observes is a deterministic
/// function of the submitted work — sharded dispatchers (the fleet engine
/// submits one job per shard, in shard order) surface the same error no
/// matter how the OS schedules the workers. Callers that need every error,
/// or want to cancel outstanding work on the first failure, should catch
/// inside the job instead.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (values < 1 are clamped to 1).
  explicit ThreadPool(int num_threads);

  /// Joins all workers; pending jobs are still executed first. An exception
  /// captured but never observed via wait() is discarded here (a destructor
  /// cannot rethrow).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue one job.
  void submit(std::function<void()> job);

  /// Block until every job submitted so far has completed, then rethrow the
  /// exception of the lowest-submission-index job that raised one (if any
  /// did). The pool stays usable after a rethrow; the next wait() batch
  /// starts with a clean error slate.
  void wait();

  [[nodiscard]] int num_threads() const {
    return static_cast<int>(workers_.size());
  }

  /// std::thread::hardware_concurrency with a floor of 1 (the standard
  /// permits it to report 0 on restricted platforms).
  static int hardware_threads();

 private:
  struct Job {
    int64_t index = 0;  ///< submission sequence number (monotonic)
    std::function<void()> run;
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  Mutex mutex_ GUARDS(queue_, unfinished_, shutting_down_, next_job_index_,
                      first_error_, first_error_index_);
  CondVar work_available_;  ///< signaled on submit() and at shutdown
  CondVar all_done_;        ///< signaled when unfinished_ reaches 0
  std::deque<Job> queue_ GUARDED_BY(mutex_);
  int64_t unfinished_ GUARDED_BY(mutex_) = 0;  ///< queued + running jobs
  bool shutting_down_ GUARDED_BY(mutex_) = false;
  int64_t next_job_index_ GUARDED_BY(mutex_) = 0;
  /// Exception of the lowest-index failing job of the current batch, and
  /// that job's index (so a later-finishing earlier job can displace the
  /// exception a later job recorded first).
  std::exception_ptr first_error_ GUARDED_BY(mutex_);
  int64_t first_error_index_ GUARDED_BY(mutex_) = 0;
};

}  // namespace puffer

#endif  // PUFFER_UTIL_THREAD_POOL_HH
