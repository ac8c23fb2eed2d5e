// A small thread pool used to run independent simulations (parameter-sweep
// points) in parallel and, since the servicing-lane work (PR 8), to
// fork-join embarrassingly-parallel stages *inside* one run. Parallel
// results are deterministic by construction: for_lanes shards are disjoint
// index ranges fixed by pure functions of (n, lanes), and fork-join
// reductions merge per-lane accumulators serially in lane order on the
// calling thread — so results are identical regardless
// of pool size, host load, or which thread executed which shard (for_lanes
// lets the caller claim shards the workers haven't reached).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/annotations.h"

namespace uvmsim {

/// Contiguous index range [begin, end) owned by lane `lane` of `lanes` when
/// splitting `n` items: the first `n % lanes` lanes get one extra item.
/// Pure function of (n, lanes, lane) — the partition never depends on
/// scheduling, so lane-order merges are deterministic.
struct LaneRange {
  std::size_t begin;
  std::size_t end;
};
[[nodiscard]] constexpr LaneRange lane_range(std::size_t n, std::size_t lanes,
                                             std::size_t lane) {
  const std::size_t base = n / lanes;
  const std::size_t extra = n % lanes;
  const std::size_t begin = lane * base + (lane < extra ? lane : extra);
  const std::size_t len = base + (lane < extra ? 1 : 0);
  return {begin, begin + len};
}

class ThreadPool {
 public:
  /// Creates a pool with `threads` workers (defaults to hardware
  /// concurrency, at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; the returned future yields its result.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mu_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after stop");
      tasks_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Fork-join over `lanes` contiguous shards of [0, n): body(lane, begin,
  /// end) runs concurrently and the call returns only when every lane
  /// finished. Workers and the calling thread claim whole lanes from a
  /// shared cursor (the caller claims everything the workers haven't
  /// reached, so a loaded or single-core host degrades to the serial loop
  /// with no blocking handoff). The partition is lane_range(), so which
  /// indices a lane owns never depends on scheduling. Lanes beyond n run on
  /// empty ranges.
  void for_lanes(std::size_t n, std::size_t lanes,
                 const std::function<void(std::size_t lane, std::size_t begin,
                                          std::size_t end)>& body);

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

 private:
  struct Job;  ///< for_lanes control block, defined in thread_pool.cpp

  void worker_loop();
  /// Queues a fire-and-forget helper (no future). Dropped if the pool is
  /// stopping — for_lanes tolerates missing helpers by design.
  void enqueue_detached(std::function<void()> fn);
  /// Returns an idle Job from the slab (steady state: no allocation), or
  /// grows the slab by one when every Job is still referenced by a late
  /// helper of an earlier for_lanes call.
  std::shared_ptr<Job> acquire_job();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  /// Reusable for_lanes control blocks; slots are recycled once only the
  /// slab itself still references them (mu_).
  std::vector<std::shared_ptr<Job>> job_slab_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Deterministic fork-join map-reduce: lane `l` builds make_acc(), folds
/// body(acc, i) over its lane_range() shard, and the per-lane accumulators
/// merge serially in ascending lane order on the calling thread. With any
/// associative merge whose lane concatenation equals the serial fold, the
/// result is bit-identical for every pool size AND every lane count —
/// which is what lets UVMSIM_THREADS vary without touching output. `pool`
/// may be null (or lanes 1): everything then runs inline on the caller.
template <typename Acc, typename MakeAcc, typename Body, typename Merge>
Acc lane_reduce(ThreadPool* pool, std::size_t n, std::size_t lanes,
                MakeAcc&& make_acc, Body&& body, Merge&& merge) {
  if (pool == nullptr || lanes <= 1 || n == 0) {
    Acc acc = make_acc();
    for (std::size_t i = 0; i < n; ++i) body(acc, i);
    return acc;
  }
  UVMSIM_LANE_OWNED std::vector<Acc> per_lane;
  per_lane.reserve(lanes);
  for (std::size_t l = 0; l < lanes; ++l) per_lane.push_back(make_acc());
  pool->for_lanes(n, lanes, [&](std::size_t lane, std::size_t b, std::size_t e) {
    Acc& acc = per_lane[lane];
    for (std::size_t i = b; i < e; ++i) body(acc, i);
  });
  Acc out = std::move(per_lane[0]);
  for (std::size_t l = 1; l < lanes; ++l) merge(out, per_lane[l]);
  return out;
}

}  // namespace uvmsim
