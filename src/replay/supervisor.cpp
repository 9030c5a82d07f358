#include "replay/supervisor.hpp"

#include <chrono>

namespace ldp::replay {

void Supervisor::start() {
  thread_ = std::thread([this] { run(); });
}

void Supervisor::stop() {
  {
    std::lock_guard lock(mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Supervisor::run() {
  std::unique_lock lock(mu_);
  while (!cv_.wait_for(lock, std::chrono::nanoseconds(interval_),
                       [this] { return stop_requested_; })) {
    // The tick may take its time (checkpoint I/O); release the lock so
    // stop() never queues behind it.
    lock.unlock();
    tick_();
    lock.lock();
  }
}

}  // namespace ldp::replay
