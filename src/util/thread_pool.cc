#include "util/thread_pool.hh"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <thread>
#include <vector>

#include "util/sync.hh"

namespace puffer {

namespace {

/// One run's jobs. Error slot i is written by the one thread that ran job
/// i and read by the run's caller once every job has finished.
struct Batch {
  const std::function<void(int64_t)>& job;
  int64_t num_jobs = 0;
  std::vector<std::exception_ptr> errors;
  /// Guarded by the mutex of the Pool the batch is queued on.
  int64_t next = 0;
  int64_t finished = 0;

  Batch(const std::function<void(int64_t)>& job, const int64_t num_jobs)
      : job{job}, num_jobs{num_jobs}, errors(static_cast<size_t>(num_jobs)) {}

  void run_one(const int64_t i) {
    try {
      job(i);
    } catch (...) {
      errors[static_cast<size_t>(i)] = std::current_exception();
    }
  }

  void rethrow_lowest() const {
    for (const std::exception_ptr& error : errors) {
      if (error) {
        std::rethrow_exception(error);
      }
    }
  }
};

/// The workers of one outermost run, shared by every run nested in its
/// jobs.
struct Pool {
  Mutex mutex GUARDS(open, Batch::next, Batch::finished);
  /// Signalled when a batch opens or finishes.
  std::condition_variable_any changed;
  /// Batches with unstarted jobs, oldest first.
  std::vector<Batch*> open GUARDED_BY(mutex);
};

/// The pool whose worker the calling thread is, if any.
thread_local Pool* current_pool = nullptr;

/// Runs queued jobs on the calling thread until `batch` has finished:
/// `batch`'s own unstarted jobs first, then the oldest open batch's. Waits
/// only when every queued job has been started.
void work_until_finished(Pool& pool, Batch& batch) {
  while (true) {
    Batch* from = nullptr;
    int64_t index = 0;
    {
      const MutexLock lock{pool.mutex};
      while (from == nullptr) {
        if (batch.finished == batch.num_jobs) {
          return;
        }
        if (batch.next < batch.num_jobs) {
          from = &batch;
        } else if (!pool.open.empty()) {
          from = pool.open.front();
        } else {
          pool.changed.wait(pool.mutex);
        }
      }
      index = from->next++;
      if (from->next == from->num_jobs) {
        pool.open.erase(std::find(pool.open.begin(), pool.open.end(), from));
      }
    }
    from->run_one(index);
    const MutexLock lock{pool.mutex};
    if (++from->finished == from->num_jobs) {
      pool.changed.notify_all();
    }
  }
}

}  // namespace

void ThreadPool::run(const int64_t num_jobs, const int num_threads,
                     const std::function<void(int64_t)>& job) {
  Batch batch{job, num_jobs};
  if (num_threads <= 1 || num_jobs <= 1) {
    for (int64_t i = 0; i < num_jobs; i++) {
      batch.run_one(i);
    }
  } else if (Pool* const pool = current_pool; pool != nullptr) {
    {
      const MutexLock lock{pool->mutex};
      pool->open.push_back(&batch);
      pool->changed.notify_all();
    }
    work_until_finished(*pool, batch);
  } else {
    Pool own;
    {
      const MutexLock lock{own.mutex};
      own.open.push_back(&batch);
    }
    // jthread joins on destruction, so if a later spawn throws, the
    // threads already started finish the batch before the exception
    // propagates.
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<size_t>(num_threads));
    for (int t = 0; t < num_threads; t++) {
      threads.emplace_back([&own, &batch] {
        current_pool = &own;
        work_until_finished(own, batch);
      });
    }
  }
  batch.rethrow_lowest();
}

int ThreadPool::resolve(const int num_threads) {
  return num_threads <= 0 ? hardware_threads() : num_threads;
}

int ThreadPool::hardware_threads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace puffer
