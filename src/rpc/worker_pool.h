// Joinable thread ownership for the serving layer.
//
// WorkerPool is the single place in src/rpc/ that touches raw
// std::thread (tm_lint check 9 bans it elsewhere in the module): every
// serving thread — fixed workers and dynamic per-connection readers —
// is created here and joined in exactly one place, so "did everything
// shut down?" has a one-word answer: Join() returned.
//
// Two thread families:
//   * Start(n, body)  — n fixed workers, each running body(worker_index)
//     to completion (the body loops on the admission queue until it is
//     closed and drained).
//   * Spawn(body)     — one dynamic thread per accepted connection. Each
//     records its completion in a shared done-flag; the next Spawn reaps
//     finished threads so a long-lived server does not accumulate
//     thousands of zombie std::thread objects.
//
// Join() joins both families and is idempotent. The caller is
// responsible for making every body return first (close the queue,
// shut down the sockets) — Join() itself never signals anything.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
// tm-sync: allow(thread-ownership, WorkerPool is the audited thread owner)
#include <thread>
#include <vector>

namespace tokenmagic::rpc {

class WorkerPool {
 public:
  WorkerPool() = default;
  ~WorkerPool() { Join(); }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Launches `n` fixed workers running body(worker_index). Call once.
  void Start(size_t n, std::function<void(size_t)> body);

  /// Launches one dynamic thread running `body`, reaping any dynamic
  /// threads that already finished. Safe from multiple threads.
  void Spawn(std::function<void()> body);

  /// Joins every thread ever launched. Idempotent; returns only after
  /// all bodies have returned.
  void Join();

 private:
  struct DynamicThread {
    std::thread thread;  // tm-sync: allow(thread-ownership, joined via Join or reaping)
    std::shared_ptr<std::atomic<bool>> done;
  };

  std::vector<std::thread> fixed_;  // tm-sync: allow(thread-ownership, joined in Join)
  std::mutex dynamic_mu_;
  std::vector<DynamicThread> dynamic_;
};

}  // namespace tokenmagic::rpc
