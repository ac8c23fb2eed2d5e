#include "sim/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace uvmsim {

/// Control block for one for_lanes fork-join. Lives in job_slab_ so the
/// steady-state for_lanes path performs no heap allocation: helpers from a
/// finished join release their references quickly, and acquire_job recycles
/// any block only the slab still holds.
struct ThreadPool::Job {
  std::atomic<std::size_t> next{0};
  std::size_t unfinished = 0;  ///< lanes not yet run to completion (mu)
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;  ///< first lane failure (mu)
};

// uvmsim-lint: suppress(hot-transitive-alloc) slab growth is the cold path: it runs once per concurrency level, then every for_lanes reuses an idle Job and allocates nothing
std::shared_ptr<ThreadPool::Job> ThreadPool::acquire_job() {
  std::lock_guard lock(mu_);
  for (auto& slot : job_slab_) {
    // use_count() == 1 means only the slab references this Job: every
    // helper of its previous join has released its copy, so recycling
    // cannot race. A concurrent 2 -> 1 drop merely hides the slot until
    // the next call — correctness never depends on seeing it.
    if (slot.use_count() == 1) {
      slot->next.store(0, std::memory_order_relaxed);
      slot->error = nullptr;
      return slot;
    }
  }
  job_slab_.push_back(std::make_shared<Job>());
  return job_slab_.back();
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping and drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::enqueue_detached(std::function<void()> fn) {
  {
    std::lock_guard lock(mu_);
    // A stopping pool drops the helper silently: for_lanes callers claim
    // every lane themselves, so dropped helpers only reduce parallelism.
    if (stopping_) return;
    tasks_.emplace(std::move(fn));
  }
  cv_.notify_one();
}

void ThreadPool::for_lanes(
    std::size_t n, std::size_t lanes,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (lanes == 0) lanes = 1;
  if (lanes == 1 || n == 0) {
    if (n > 0) body(0, 0, n);
    return;
  }
  // Claim-based fork-join: pool workers AND the calling thread pull whole
  // lanes from an atomic cursor. The index partition is still the pure
  // lane_range() function — claiming only decides *who executes* a lane,
  // never which indices it owns, so results stay deterministic for every
  // pool size and host load. The payoff is on loaded or few-core hosts:
  // the caller claims every lane the workers haven't reached and never
  // blocks on a handoff, so the worst case degrades to the plain serial
  // loop instead of a context-switch ping-pong per lane.
  std::shared_ptr<Job> job = acquire_job();
  job->unfinished = lanes;
  // `body` lives on the caller's stack; helpers may only dereference it
  // while the caller is parked in the join below. A helper that runs after
  // the join released (all lanes finished) loses every claim and returns
  // without touching it.
  const auto* bp = &body;
  const auto run_claims = [job, bp, n, lanes] {
    for (;;) {
      const std::size_t l = job->next.fetch_add(1, std::memory_order_relaxed);
      if (l >= lanes) return;
      const LaneRange r = lane_range(n, lanes, l);
      if (r.begin < r.end) {
        try {
          (*bp)(l, r.begin, r.end);
        } catch (...) {
          std::lock_guard lock(job->mu);
          if (!job->error) job->error = std::current_exception();
        }
      }
      std::lock_guard lock(job->mu);
      if (--job->unfinished == 0) job->cv.notify_all();
    }
  };
  // At most one helper per spare worker: each loops over claims, so fewer
  // helpers than lanes still covers every lane.
  const std::size_t helpers = std::min(lanes - 1, size());
  for (std::size_t h = 0; h < helpers; ++h) enqueue_detached(run_claims);
  run_claims();
  std::unique_lock lock(job->mu);
  job->cv.wait(lock, [&job] { return job->unfinished == 0; });
  if (job->error) std::rethrow_exception(job->error);
}

}  // namespace uvmsim
