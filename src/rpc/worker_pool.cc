#include "rpc/worker_pool.h"

#include <utility>

#include "common/macros.h"

namespace tokenmagic::rpc {

void WorkerPool::Start(size_t n, std::function<void(size_t)> body) {
  TM_CHECK(fixed_.empty());
  fixed_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    fixed_.emplace_back([body, i] { body(i); });
  }
}

void WorkerPool::Spawn(std::function<void()> body) {
  std::lock_guard<std::mutex> lock(dynamic_mu_);
  // Reap finished dynamic threads so the vector stays proportional to the
  // number of *live* connections, not the number ever accepted.
  for (size_t i = 0; i < dynamic_.size();) {
    if (dynamic_[i].done->load()) {
      dynamic_[i].thread.join();
      dynamic_[i] = std::move(dynamic_.back());
      dynamic_.pop_back();
    } else {
      ++i;
    }
  }
  DynamicThread entry;
  entry.done = std::make_shared<std::atomic<bool>>(false);
  auto done = entry.done;
  entry.thread = std::thread(  // tm-sync: allow(thread-ownership, audited owner)
      [body = std::move(body), done] {
        body();
        done->store(true);
      });
  dynamic_.push_back(std::move(entry));
}

void WorkerPool::Join() {
  for (auto& t : fixed_) {
    if (t.joinable()) t.join();
  }
  fixed_.clear();
  std::vector<DynamicThread> dynamic;
  {
    std::lock_guard<std::mutex> lock(dynamic_mu_);
    dynamic.swap(dynamic_);
  }
  for (auto& entry : dynamic) {
    if (entry.thread.joinable()) entry.thread.join();
  }
}

}  // namespace tokenmagic::rpc
