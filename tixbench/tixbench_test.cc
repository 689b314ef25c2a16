// Tests for the benchmark's own arithmetic: the percentile rule, due-time
// latency under a generator stall, the churn writer's DELETE choice, and
// self time with overlapping children. Run with
// `ctest --test-dir .bench_build/tixbench`.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "load.h"
#include "stats.h"
#include "trace.h"

namespace tixbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ++failures;                                                      \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                             \
    }                                                                  \
  } while (0)

constexpr Nanos kMs = 1000000;

std::vector<double> OneTo(int n) {
  std::vector<double> out;
  for (int i = n; i >= 1; --i) out.push_back(i);  // unsorted on purpose
  return out;
}

void TestPercentileNeedsTenBeyond() {
  // p99 of 1000 samples is the 990th; exactly ten lie beyond it.
  EXPECT(Percentile(OneTo(1000), 0.99) == 990.0);
  EXPECT(!Percentile(OneTo(999), 0.99).has_value());
  EXPECT(Percentile(OneTo(100), 0.9) == 90.0);
  EXPECT(!Percentile(OneTo(99), 0.9).has_value());
  EXPECT(Percentile(OneTo(20), 0.5) == 10.0);
  EXPECT(!Percentile(OneTo(19), 0.5).has_value());
  EXPECT(!Percentile({}, 0.5).has_value());
  EXPECT(Median({3, 1, 2}) == 2.0);
  EXPECT(Median({4, 1, 3, 2}) == 2.5);
}

/// Manual time: sends cost `service`, and the generator oversleeps by
/// `stalls[k]` on its k-th sleep.
class ManualClock final : public Clock {
 public:
  explicit ManualClock(std::vector<Nanos> stalls) : stalls_(std::move(stalls)) {}
  Nanos Now() override { return now_; }
  void SleepUntil(Nanos deadline) override {
    now_ = std::max(now_, deadline);
    if (sleeps_ < stalls_.size()) now_ += stalls_[sleeps_];
    ++sleeps_;
  }
  void Advance(Nanos by) { now_ += by; }

 private:
  std::vector<Nanos> stalls_;
  size_t sleeps_ = 0;
  Nanos now_ = 0;
};

void TestDueTimeLatencyChargesStall() {
  // Ten requests due every 10 ms, each served in 1 ms; the generator
  // stalls 35 ms before sending request 3.
  ManualClock clock({0, 0, 0, 35 * kMs});
  std::vector<Nanos> offsets;
  for (int i = 0; i < 10; ++i) offsets.push_back(i * 10 * kMs);
  const OpenLoopResult result =
      RunOpenLoop(&clock, 0, offsets, 1, 1000 * kMs, [&](size_t, size_t) {
        clock.Advance(1 * kMs);
        return true;
      });
  // Request 3 is sent at 65 ms; 4, 5 and 6 queue behind it and are sent
  // late too, so their latency from the due time carries the stall.
  const std::vector<double> expected = {1, 1, 1, 36, 27, 18, 9, 1, 1, 1};
  EXPECT(result.LatenciesMs() == expected);
  // Timed from the send instead, the stall would vanish.
  EXPECT(result.ServiceTimesMs() == std::vector<double>(10, 1.0));
  // Only request 3 was late through the generator's own fault; 4..6
  // waited for the busy connection.
  const std::vector<double> lateness = {0, 0, 0, 35, 0, 0, 0, 0, 0, 0};
  EXPECT(result.GeneratorLatenessMs() == lateness);
  EXPECT(result.Unsent() == 0 && result.Failed() == 0);
}

void TestRequestsPastDrainAreUnsent() {
  // A 100 ms stall at request 3 overruns a 50 ms drain deadline: 3..9 are
  // never sent.
  ManualClock clock({0, 0, 0, 100 * kMs});
  std::vector<Nanos> offsets;
  for (int i = 0; i < 10; ++i) offsets.push_back(i * 10 * kMs);
  const OpenLoopResult result =
      RunOpenLoop(&clock, 0, offsets, 1, 50 * kMs, [&](size_t, size_t) {
        clock.Advance(1 * kMs);
        return true;
      });
  EXPECT(result.Sent() == 3);
  EXPECT(result.Unsent() == 7);
}

void TestPoissonSchedule() {
  const std::vector<Nanos> a = PoissonSchedule(1000, 10, 7);
  EXPECT(a == PoissonSchedule(1000, 10, 7));
  EXPECT(a != PoissonSchedule(1000, 10, 8));
  EXPECT(std::abs(static_cast<double>(a.size()) - 10000) < 300);
  for (size_t i = 1; i < a.size(); ++i) EXPECT(a[i] >= a[i - 1]);
  EXPECT(!a.empty() && a.back() < 10 * 1000 * kMs);
  const std::vector<Nanos> even = EvenSchedule(20, 1.5);
  EXPECT(even.size() == 30);
  EXPECT(even[1] == 50 * kMs && even.back() == 1450 * kMs);
}

void TestDeleteVictimNeedsAnEarlierIngest() {
  // Only the just-acknowledged ingest is live (earlier ones failed):
  // nothing to delete, and no division by zero.
  EXPECT(!DeleteVictim(0, 12345).has_value());
  EXPECT(!DeleteVictim(1, 12345).has_value());
  EXPECT(DeleteVictim(2, 12345) == 0u);
  for (uint64_t draw = 0; draw < 100; ++draw) {
    EXPECT(DeleteVictim(5, draw) == draw % 4);  // never index 4, the newest
  }
}

void TestSelfTimeWithOverlappingChildren() {
  // parent [0,100]: children [10,40] and [30,60] overlap, [80,120] runs
  // past the parent's end; covered = [10,60] + [80,100] = 70.
  const std::vector<Span> spans = {
      {1, 0, 1, "server.roundtrip", 0, 100},
      {2, 1, 1, "a", 10, 40},
      {3, 1, 1, "b", 30, 60},
      {4, 1, 1, "c", 80, 120},
      {5, 2, 1, "d", 15, 25},  // grandchild: charged to "a" only
  };
  const auto self = SelfTimes(spans);
  EXPECT(self.at(1) == 30);
  EXPECT(self.at(2) == 20);
  EXPECT(self.at(3) == 30);
  EXPECT(self.at(4) == 40);
  EXPECT(self.at(5) == 10);
  EXPECT(CoveredWithin({{0, 10}, {0, 10}, {5, 8}}, 0, 100) == 10);
  EXPECT(CoveredWithin({{-5, 5}, {50, 60}}, 0, 55) == 10);
}

}  // namespace
}  // namespace tixbench

int main() {
  tixbench::TestPercentileNeedsTenBeyond();
  tixbench::TestDueTimeLatencyChargesStall();
  tixbench::TestRequestsPastDrainAreUnsent();
  tixbench::TestPoissonSchedule();
  tixbench::TestDeleteVictimNeedsAnEarlierIngest();
  tixbench::TestSelfTimeWithOverlappingChildren();
  if (tixbench::failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", tixbench::failures);
    return 1;
  }
  std::printf("tixbench_test: all checks passed\n");
  return 0;
}
