#include "util/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace puffer {

void ThreadPool::run(const int64_t num_jobs, const int num_threads,
                     const std::function<void(int64_t)>& job) {
  // One slot per job: each is written by the one thread that ran the job
  // and read only after the join.
  std::vector<std::exception_ptr> errors(static_cast<size_t>(num_jobs));
  const auto run_one = [&](const int64_t i) {
    try {
      job(i);
    } catch (...) {
      errors[static_cast<size_t>(i)] = std::current_exception();
    }
  };
  const int64_t workers =
      std::min<int64_t>(std::max(1, num_threads), num_jobs);
  if (workers <= 1) {
    for (int64_t i = 0; i < num_jobs; i++) {
      run_one(i);
    }
  } else {
    std::atomic<int64_t> next{0};
    // jthread joins on destruction, so if a later spawn throws, the
    // threads already started are joined before the exception propagates.
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<size_t>(workers));
    for (int64_t t = 0; t < workers; t++) {
      threads.emplace_back([&] {
        for (int64_t i = next.fetch_add(1); i < num_jobs;
             i = next.fetch_add(1)) {
          run_one(i);
        }
      });
    }
  }
  for (const std::exception_ptr& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
}

int ThreadPool::hardware_threads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace puffer
