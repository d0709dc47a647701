// Tests for the benchmark's own helpers: the tail-percentile rule,
// open-loop lateness accounting, the logit-bound check, and the latency
// sample definitions. Plain checks, no test framework: exits non-zero on
// the first failure.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "common.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (ok) return;
  std::fprintf(stderr, "test_helpers.cpp:%d: FAILED: %s\n", line, what);
  ++failures;
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

using servebench::LatenessLog;
using servebench::LatencySamples;
using servebench::Timeline;

void test_percentile_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT(servebench::quantile(v, 0.5) == 50.0);
  EXPECT(servebench::quantile(v, 0.9) == 90.0);
  EXPECT(servebench::quantile(v, 1.0) == 100.0);
  EXPECT(servebench::quantile({}, 0.5) == 0.0);
  EXPECT(servebench::quantile({7.0}, 0.99) == 7.0);
  // Order of input does not matter.
  EXPECT(servebench::quantile({3.0, 1.0, 2.0}, 0.5) == 2.0);

  EXPECT(servebench::samples_beyond(100, 0.9) == 10);
  EXPECT(servebench::samples_beyond(100, 0.95) == 5);
  EXPECT(servebench::samples_beyond(40, 0.75) == 10);
  EXPECT(servebench::samples_beyond(0, 0.5) == 0);

  // Below forty samples there is no tail.
  EXPECT(!servebench::tail_quantile(39).has_value());
  EXPECT(servebench::tail_quantile(40) == 0.75);
  EXPECT(servebench::tail_quantile(99) == 0.75);
  EXPECT(servebench::tail_quantile(100) == 0.90);
  EXPECT(servebench::tail_quantile(199) == 0.90);
  EXPECT(servebench::tail_quantile(200) == 0.95);
  EXPECT(servebench::tail_quantile(1000) == 0.99);
  EXPECT(servebench::tail_quantile(10000) == 0.999);
  // Whatever the count, the chosen tail leaves at least ten beyond it.
  for (std::size_t n = 40; n < 3000; n += 7) {
    const auto q = servebench::tail_quantile(n);
    EXPECT(q.has_value() && servebench::samples_beyond(n, *q) >= 10);
  }
}

void test_lateness() {
  LatenessLog log;
  log.record(1.000, 1.000);  // on time
  log.record(2.000, 1.990);  // early issues count as zero, never negative
  log.record(3.000, 3.0005);
  log.record(4.000, 4.020);  // 20 ms late
  EXPECT(log.count() == 4);
  EXPECT(log.late_count(1.0) == 1);
  EXPECT(log.late_count(0.1) == 2);
  EXPECT(std::fabs(log.quantile_ms(1.0) - 20.0) < 1e-6);
  EXPECT(log.quantile_ms(0.5) == 0.0);

  // Latency is timed from the due time: a generator stall that issues a
  // chunk 30 ms late adds those 30 ms to the chunk's lag.
  Timeline t;
  t.chunk_due_s = {1.0, 1.1};
  t.chunk_rows = {4, 14};
  t.finish_due_s = 1.1;
  rtmobile::speech::StreamEvent partial;
  partial.frames = 5;
  partial.partial = {3};
  rtmobile::speech::StreamEvent final_event;
  final_event.frames = 16;
  final_event.stable = {3};
  final_event.is_final = true;
  t.events = {partial, final_event};
  t.event_s = {1.002, 1.160};
  LatencySamples s;
  s.add(t);
  EXPECT(s.first_partial_ms.size() == 1 &&
         std::fabs(s.first_partial_ms[0] - 2.0) < 1e-9);
  EXPECT(s.partial_lag_ms.size() == 2);
  EXPECT(std::fabs(s.partial_lag_ms[0] - 2.0) < 1e-9);
  EXPECT(std::fabs(s.partial_lag_ms[1] - 60.0) < 1e-9);
  EXPECT(s.final_ms.size() == 1 && std::fabs(s.final_ms[0] - 60.0) < 1e-9);
  EXPECT(s.frame_us.size() == 1 &&
         std::fabs(s.frame_us[0] - 160e3 / 16.0) < 1e-6);
}

void test_logit_bound() {
  rtmobile::Matrix ref(3, 4);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      ref.row(r)[c] = static_cast<float>(r) - 0.5F * static_cast<float>(c);
    }
  }
  rtmobile::Matrix same = ref;
  EXPECT(servebench::check_logits(same, ref, 1e-6).ok);
  EXPECT(servebench::bit_equal(same, ref));

  // One perturbed element in one row fails the bound and names the row.
  rtmobile::Matrix bumped = ref;
  bumped.row(2)[1] += 0.1F;
  const auto bad = servebench::check_logits(bumped, ref, 0.05);
  EXPECT(!bad.ok);
  EXPECT(bad.worst_row == 2);
  EXPECT(!servebench::bit_equal(bumped, ref));
  EXPECT(servebench::check_logits(bumped, ref, 0.2).ok);

  rtmobile::Matrix nan_row = ref;
  nan_row.row(0)[0] = std::numeric_limits<float>::quiet_NaN();
  EXPECT(!servebench::check_logits(nan_row, ref, 1.0).ok);

  rtmobile::Matrix short_rows(2, 4);
  EXPECT(!servebench::check_logits(short_rows, ref, 1.0).ok);
}

void test_rows_ready() {
  // 100 ms at 16 kHz: 8 MFCC frames, less the 4-frame delta lookahead.
  EXPECT(servebench::rows_ready(1600, false) == 4);
  EXPECT(servebench::rows_ready(1600, true) == 8);
  EXPECT(servebench::rows_ready(399, true) == 0);
}

}  // namespace

int main() {
  test_percentile_rule();
  test_lateness();
  test_logit_bound();
  test_rows_ready();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("servebench helper tests passed\n");
  return 0;
}
