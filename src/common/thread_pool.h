// Persistent worker pool: the substrate under parallel_for and
// ecnn::BatchRunner.
//
// Design constraints, in order:
//  * no allocation and no std::function on the task path — a job is a raw
//    function pointer plus a context pointer; workers pull task indices from
//    an atomic counter;
//  * workers are spawned once and parked on a condition variable between
//    jobs (the previous parallel_for spawned and joined a thread per call);
//  * the calling thread participates in the job, so a pool of N workers
//    yields N+1 lanes of execution;
//  * nested submission from inside a worker degrades to inline execution
//    instead of deadlocking.
//
// Exceptions thrown by tasks are captured (first wins), the job still runs
// to completion, and the exception is rethrown on the submitting thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace sne {

class ThreadPool {
 public:
  /// Task entry point: invoked once per task index in [0, task_count).
  using TaskFn = void (*)(void* ctx, std::size_t task_index);

  explicit ThreadPool(unsigned workers) {
    const unsigned n = workers == 0 ? 1u : workers;
    workers_.reserve(n);
    for (unsigned w = 0; w < n; ++w)
      workers_.emplace_back([this] { worker_loop(); });
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lk(m_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  /// Worker threads owned by the pool (callers add themselves as one more
  /// lane while a job runs).
  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Process-wide pool sized to the hardware concurrency. Built on first
  /// use; torn down at exit.
  static ThreadPool& global() {
    static ThreadPool pool(default_workers());
    return pool;
  }

  static unsigned default_workers() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1u : hw;
  }

  /// Runs fn(ctx, k) for every k in [0, tasks), distributing tasks over the
  /// pool plus the calling thread; returns when all completed. Serialized
  /// across concurrent submitters; nested calls from a worker run inline.
  void run(TaskFn fn, void* ctx, std::size_t tasks) {
    if (tasks == 0) return;
    if (in_worker() || tasks == 1) {
      for (std::size_t k = 0; k < tasks; ++k) fn(ctx, k);
      return;
    }
    std::lock_guard<std::mutex> job_lk(job_m_);  // one job at a time
    {
      std::lock_guard<std::mutex> lk(m_);
      fn_ = fn;
      ctx_ = ctx;
      total_ = tasks;
      error_ = nullptr;
      done_.store(0, std::memory_order_relaxed);
      // The index counter is monotonic across jobs (never reset): this job
      // hands out [base_, base_ + tasks). A worker straggling from the
      // previous job that races the submission either drew an index >= the
      // old end_ (it parks) or acquires the new end_, which release-publishes
      // every field above.
      base_ = next_.load(std::memory_order_relaxed);
      end_.store(base_ + tasks, std::memory_order_release);
      ++generation_;
    }
    cv_.notify_all();
    // The caller is a lane too; flag it like a worker so a task that
    // re-enters run() on this thread degrades to inline execution instead
    // of deadlocking on job_m_.
    in_worker() = true;
    drain();
    in_worker() = false;
    {
      std::unique_lock<std::mutex> lk(m_);
      done_cv_.wait(lk, [this] {
        return done_.load(std::memory_order_acquire) == total_;
      });
      if (error_) {
        std::exception_ptr e = error_;
        error_ = nullptr;
        std::rethrow_exception(e);
      }
    }
  }

 private:
  static bool& in_worker() {
    thread_local bool flag = false;
    return flag;
  }

  void drain() {
    for (;;) {
      // CAS grab: an index is only consumed by a thread that has acquired
      // the end_ marker covering it, so a straggler racing the next job's
      // submission either parks (stale end_) or joins the new job with its
      // fields fully visible — it can never burn an index it won't execute.
      std::uint64_t k = next_.load(std::memory_order_relaxed);
      for (;;) {
        if (k >= end_.load(std::memory_order_acquire)) return;
        if (next_.compare_exchange_weak(k, k + 1, std::memory_order_acquire,
                                        std::memory_order_relaxed))
          break;
      }
      // Read every job field before this task's done_ increment: once the
      // last increment lands, the submitter may return and the next run()
      // rewrites them.
      const std::size_t total = total_;
      try {
        fn_(ctx_, static_cast<std::size_t>(k - base_));
      } catch (...) {
        std::lock_guard<std::mutex> lk(m_);
        if (!error_) error_ = std::current_exception();
      }
      if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 == total) {
        std::lock_guard<std::mutex> lk(m_);
        done_cv_.notify_all();
      }
    }
  }

  void worker_loop() {
    in_worker() = true;
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(m_);
        cv_.wait(lk, [this, seen] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
      }
      drain();
    }
  }

  std::vector<std::thread> workers_;
  std::mutex job_m_;  ///< serializes submitters

  std::mutex m_;
  std::condition_variable cv_;       ///< wakes workers for a new job
  std::condition_variable done_cv_;  ///< wakes the submitter on completion
  std::uint64_t generation_ = 0;
  bool stop_ = false;

  TaskFn fn_ = nullptr;
  void* ctx_ = nullptr;
  std::size_t total_ = 0;
  std::uint64_t base_ = 0;             ///< first index of the current job
  std::atomic<std::uint64_t> next_{0};  ///< monotonic across jobs
  std::atomic<std::uint64_t> end_{0};   ///< one past the current job's range
  std::atomic<std::size_t> done_{0};
  std::exception_ptr error_;
};

}  // namespace sne
