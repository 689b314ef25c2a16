#ifndef TIXBENCH_LOAD_H_
#define TIXBENCH_LOAD_H_

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <thread>
#include <vector>

/// \file
/// Load generators. An open loop sends on a fixed Poisson schedule no
/// matter how the server keeps up, and times each request from when it
/// was *due*, so a stall is charged to every request queued behind it. A
/// closed loop sends each connection's next request when the previous
/// reply arrives, and measures throughput.

namespace tixbench {

using Nanos = int64_t;

inline double NanosToMs(Nanos ns) { return static_cast<double>(ns) / 1e6; }

/// Time source for the generators; tests substitute a manual clock.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual Nanos Now() = 0;
  /// Returns at or after `deadline` (immediately when already past).
  virtual void SleepUntil(Nanos deadline) = 0;
};

class SteadyClock final : public Clock {
 public:
  Nanos Now() override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  void SleepUntil(Nanos deadline) override {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(deadline)));
  }
};

/// Arrival offsets (ns from the phase start) of a Poisson process at
/// `rate` per second over `seconds`, drawn from `seed`. The uniform draw
/// is taken from the raw 64-bit engine output so the schedule is the same
/// under every standard library.
inline std::vector<Nanos> PoissonSchedule(double rate, double seconds,
                                          uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Nanos> offsets;
  double t = 0.0;
  for (;;) {
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    t += -std::log1p(-u) / rate;
    if (t >= seconds) break;
    offsets.push_back(static_cast<Nanos>(t * 1e9));
  }
  return offsets;
}

/// Evenly spaced arrival offsets: `rate` per second over `seconds`.
inline std::vector<Nanos> EvenSchedule(double rate, double seconds) {
  std::vector<Nanos> offsets;
  for (int64_t i = 0; static_cast<double>(i) < rate * seconds; ++i) {
    offsets.push_back(static_cast<Nanos>(static_cast<double>(i) / rate * 1e9));
  }
  return offsets;
}

/// The churn writer's DELETE victim: an index below `live` - 1, drawn
/// uniformly from `draw`, so the newest of the `live` ingests (the one
/// just acknowledged) is never chosen. None when no earlier ingest is
/// live, as after earlier INGESTs failed.
inline std::optional<size_t> DeleteVictim(size_t live, uint64_t draw) {
  if (live < 2) return std::nullopt;
  return static_cast<size_t>(draw % (live - 1));
}

struct OpenLoopRecord {
  Nanos due = 0;
  Nanos ready = 0;  ///< When the connection that sent it became free.
  Nanos sent = 0;
  Nanos done = 0;
  bool sent_ok = false;  ///< Sent before the drain deadline.
  bool ok = false;       ///< Answered without error.
};

struct OpenLoopResult {
  std::vector<OpenLoopRecord> records;  ///< One per scheduled request.

  size_t Sent() const {
    size_t n = 0;
    for (const OpenLoopRecord& r : records) n += r.sent_ok ? 1 : 0;
    return n;
  }
  size_t Failed() const {
    size_t n = 0;
    for (const OpenLoopRecord& r : records) n += r.sent_ok && !r.ok ? 1 : 0;
    return n;
  }
  size_t Unsent() const { return records.size() - Sent(); }
  /// Completion minus due time of every answered request.
  std::vector<double> LatenciesMs() const {
    std::vector<double> out;
    for (const OpenLoopRecord& r : records) {
      if (r.ok) out.push_back(NanosToMs(r.done - r.due));
    }
    return out;
  }
  /// Send-to-completion time of every answered request (no queueing in
  /// the generator).
  std::vector<double> ServiceTimesMs() const {
    std::vector<double> out;
    for (const OpenLoopRecord& r : records) {
      if (r.ok) out.push_back(NanosToMs(r.done - r.sent));
    }
    return out;
  }
  /// How late the generator itself sent each request: send time minus
  /// the later of its due time and its connection becoming free. Waiting
  /// for a busy connection is the server's doing and is excluded.
  std::vector<double> GeneratorLatenessMs() const {
    std::vector<double> out;
    for (const OpenLoopRecord& r : records) {
      if (r.sent_ok) out.push_back(NanosToMs(r.sent - std::max(r.due, r.ready)));
    }
    return out;
  }
};

/// Runs the schedule `offsets` (relative to `start`) over `connections`
/// workers; a free worker takes the next request in due order. Requests
/// not sent by `drain_deadline` are left unsent. `send(connection,
/// index)` performs request `index` and returns whether it succeeded.
/// One connection runs on the calling thread.
template <typename Send>
OpenLoopResult RunOpenLoop(Clock* clock, Nanos start,
                           const std::vector<Nanos>& offsets,
                           size_t connections, Nanos drain_deadline,
                           Send&& send) {
  OpenLoopResult result;
  result.records.resize(offsets.size());
  std::atomic<size_t> next{0};
  auto worker = [&](size_t connection) {
    for (;;) {
      const Nanos ready = clock->Now();
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= offsets.size()) return;
      OpenLoopRecord& record = result.records[i];
      record.due = start + offsets[i];
      record.ready = ready;
      clock->SleepUntil(record.due);
      record.sent = clock->Now();
      if (record.sent > drain_deadline) return;
      record.sent_ok = true;
      record.ok = send(connection, i);
      record.done = clock->Now();
    }
  };
  if (connections <= 1) {
    worker(0);
    return result;
  }
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) threads.emplace_back(worker, c);
  for (std::thread& thread : threads) thread.join();
  return result;
}

struct ClosedLoopResult {
  uint64_t completed = 0;  ///< Answered without error.
  uint64_t failed = 0;
  double seconds = 0.0;
  std::vector<double> latencies_ms;
  double Throughput() const {
    return seconds > 0 ? static_cast<double>(completed) / seconds : 0.0;
  }
};

/// Each of `connections` workers sends back-to-back until `end`.
/// `send(connection, sequence)` gets the worker's own request counter.
template <typename Send>
ClosedLoopResult RunClosedLoop(Clock* clock, size_t connections, Nanos end,
                               Send&& send) {
  std::vector<ClosedLoopResult> parts(connections);
  const Nanos start = clock->Now();
  auto worker = [&](size_t connection) {
    ClosedLoopResult& part = parts[connection];
    for (uint64_t sequence = 0;; ++sequence) {
      const Nanos t0 = clock->Now();
      if (t0 >= end) return;
      const bool ok = send(connection, sequence);
      const Nanos t1 = clock->Now();
      if (ok) {
        ++part.completed;
        part.latencies_ms.push_back(NanosToMs(t1 - t0));
      } else {
        ++part.failed;
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) threads.emplace_back(worker, c);
  for (std::thread& thread : threads) thread.join();
  ClosedLoopResult total;
  total.seconds = static_cast<double>(clock->Now() - start) / 1e9;
  for (ClosedLoopResult& part : parts) {
    total.completed += part.completed;
    total.failed += part.failed;
    total.latencies_ms.insert(total.latencies_ms.end(),
                              part.latencies_ms.begin(),
                              part.latencies_ms.end());
  }
  return total;
}

}  // namespace tixbench

#endif  // TIXBENCH_LOAD_H_
