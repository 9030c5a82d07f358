// The checkpoint ticker for a replay: one background thread that runs a
// callback every interval until stopped. The engine hands it the checkpoint
// gather-and-write; the queriers publish their snapshots from their own
// event loops, so the ticker never touches engine internals.
//
// Failure handling is not its job. The failure domain is the process:
// `ldp-replay --workers` watches ldp-worker processes by heartbeat and
// waitpid, kills a wedged one and respawns it from its last checkpoint
// (dist/controller.hpp).
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>

#include "util/clock.hpp"

namespace ldp::replay {

class Supervisor {
 public:
  /// `tick` runs on the ticker thread every `interval` (> 0) once started.
  Supervisor(TimeNs interval, std::function<void()> tick)
      : interval_(interval), tick_(std::move(tick)) {}
  ~Supervisor() { stop(); }

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  void start();
  /// Idempotent; joins the thread. After stop() the tick never runs again.
  void stop();

 private:
  void run();

  TimeNs interval_;
  std::function<void()> tick_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

}  // namespace ldp::replay
