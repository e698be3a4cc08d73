#include "sched/pool.h"

#include "obs/trace.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace sani::sched {

struct Pool::Impl {
  // One deque per worker; the owner pops the front, thieves pop the back.
  // A plain mutex per deque is enough here: tasks are verification shards
  // (milliseconds to seconds each), so queue operations are never hot.
  struct TaskDeque {
    std::mutex mu;
    std::deque<std::size_t> tasks;
  };

  // Worker 0 is the thread that calls run(); only workers 1..n-1 get a
  // thread of their own, so a one-worker pool starts none.
  explicit Impl(int n) : nthreads(n) {
    deques.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) deques.push_back(std::make_unique<TaskDeque>());
    workers.reserve(static_cast<std::size_t>(n - 1));
    for (int i = 1; i < n; ++i)
      workers.emplace_back([this, i] { worker_loop(i); });
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> lk(job_mu);
      stopping = true;
    }
    job_cv.notify_all();
    for (auto& t : workers) t.join();
  }

  /// Pops the next task: own deque front first, then steal from the back of
  /// the other deques (scanning from id+1 so thieves spread out).
  bool try_pop(int id, std::size_t* task, bool* stolen) {
    {
      TaskDeque& own = *deques[static_cast<std::size_t>(id)];
      std::lock_guard<std::mutex> lk(own.mu);
      if (!own.tasks.empty()) {
        *task = own.tasks.front();
        own.tasks.pop_front();
        *stolen = false;
        return true;
      }
    }
    for (int off = 1; off < nthreads; ++off) {
      TaskDeque& victim =
          *deques[static_cast<std::size_t>((id + off) % nthreads)];
      std::lock_guard<std::mutex> lk(victim.mu);
      if (!victim.tasks.empty()) {
        *task = victim.tasks.back();
        victim.tasks.pop_back();
        *stolen = true;
        return true;
      }
    }
    return false;
  }

  /// Runs tasks as worker `id` until every deque is empty.
  void drain(int id, const TaskFn& fn) {
    std::size_t task = 0;
    bool stolen = false;
    while (try_pop(id, &task, &stolen)) {
      if (stolen) stolen_count.fetch_add(1, std::memory_order_relaxed);
      try {
        obs::Span span("task");
        fn(id, task);
      } catch (...) {
        std::lock_guard<std::mutex> lk(job_mu);
        if (!error) error = std::current_exception();
      }
      remaining.fetch_sub(1, std::memory_order_acq_rel);
    }
  }

  void worker_loop(int id) {
    std::uint64_t seen_generation = 0;
    for (;;) {
      const TaskFn* fn = nullptr;
      {
        std::unique_lock<std::mutex> lk(job_mu);
        job_cv.wait(lk, [&] {
          return stopping || generation != seen_generation;
        });
        if (stopping) return;
        seen_generation = generation;
        fn = task_fn;
      }
      // The trace tid of this OS thread maps to "worker <id>": the tracer
      // assigns tids per thread, the label ties them to pool worker ids.
      obs::Tracer::instance().label_thread("worker", id);
      drain(id, *fn);
      // All deques empty: nothing left of this job for us (tasks are only
      // enqueued before the generation bump, never during a job).  Parking
      // the worker *under the lock* before run() can return closes the
      // window where a straggler could pop tasks of the next job while
      // still holding the previous job's function pointer.
      {
        std::lock_guard<std::mutex> lk(job_mu);
        ++workers_parked;
        done_cv.notify_all();
      }
    }
  }

  const int nthreads;
  std::vector<std::unique_ptr<TaskDeque>> deques;
  std::vector<std::thread> workers;

  std::mutex job_mu;
  std::condition_variable job_cv;   // workers: a new job (or shutdown)
  std::condition_variable done_cv;  // run(): the job drained
  std::uint64_t generation = 0;
  bool stopping = false;
  int workers_parked = 0;    // threads done with the current generation
  const TaskFn* task_fn = nullptr;
  std::exception_ptr error;  // first task exception, guarded by job_mu

  std::atomic<std::size_t> remaining{0};
  std::atomic<std::uint64_t> stolen_count{0};
};

Pool::Pool(int threads) : impl_(std::make_unique<Impl>(threads < 1 ? 1 : threads)) {}

Pool::~Pool() = default;

int Pool::threads() const { return impl_->nthreads; }

PoolStats Pool::run(std::size_t num_tasks, const TaskFn& fn) {
  PoolStats stats;
  if (num_tasks == 0) return stats;
  {
    std::lock_guard<std::mutex> lk(impl_->job_mu);
    for (std::size_t t = 0; t < num_tasks; ++t) {
      auto& dq = *impl_->deques[t % static_cast<std::size_t>(impl_->nthreads)];
      std::lock_guard<std::mutex> dlk(dq.mu);
      dq.tasks.push_back(t);
    }
    impl_->task_fn = &fn;
    impl_->error = nullptr;
    impl_->workers_parked = 0;
    impl_->remaining.store(num_tasks, std::memory_order_release);
    impl_->stolen_count.store(0, std::memory_order_release);
    ++impl_->generation;
  }
  impl_->job_cv.notify_all();
  // The caller is worker 0 of a multi-worker job; a one-worker job leaves
  // the caller's lane as the caller named it (or unnamed).
  if (impl_->nthreads > 1) obs::Tracer::instance().label_thread("worker", 0);
  impl_->drain(0, fn);

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lk(impl_->job_mu);
    impl_->done_cv.wait(lk, [&] {
      return impl_->remaining.load(std::memory_order_acquire) == 0 &&
             impl_->workers_parked == impl_->nthreads - 1;
    });
    impl_->task_fn = nullptr;
    error = impl_->error;
  }
  stats.tasks_run = num_tasks;
  stats.tasks_stolen = impl_->stolen_count.load(std::memory_order_acquire);
  if (error) std::rethrow_exception(error);
  return stats;
}

int Pool::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int default_jobs(int requested) {
  if (requested == 0) return Pool::hardware_threads();
  return requested < 1 ? 1 : requested;
}

}  // namespace sani::sched
