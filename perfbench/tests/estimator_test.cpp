// Unit tests of the benchmark's estimators and of the span recorder's
// self-time bookkeeping. Exit code 0 = all checks passed.
#include <cstdio>
#include <thread>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("[%s] %s\n", ok ? "ok" : "FAIL", what);
  if (!ok) ++g_failures;
}

void spin_us(int us) {
  const auto end = std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < end) {
  }
}

}  // namespace

int main() {
  // Nearest rank on 1..100: p90 is the 90th value, p50 the 50th.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  expect(percentile(hundred, 90) == 90, "p90 of 1..100 is 90");
  expect(percentile(hundred, 50) == 50, "p50 of 1..100 is 50");
  expect(percentile(hundred, 99) == 99, "p99 of 1..100 is 99");
  expect(percentile(hundred, 100) == 100, "p100 is the maximum");
  expect(percentile(hundred, 0) == 1, "p0 is the minimum");
  expect(percentile({7}, 90) == 7, "one sample is every percentile");
  expect(percentile({}, 90) == 0, "no samples give 0");
  expect(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 90) == 10,
         "p90 of 11 samples is the 10th (rank ceil(9.9))");

  // The property the benchmark relies on: with a two-level host, p90 reads
  // the slow level as soon as it covers a tenth of the units, regardless of
  // how much more of the run it covers; the median does not.
  Samples mostly_fast;
  Samples mostly_slow;
  for (int i = 0; i < 1000; ++i) {
    mostly_fast.add(i < 150 ? 2.0 : 1.0);  // 15% slow
    mostly_slow.add(i < 600 ? 2.0 : 1.0);  // 60% slow
  }
  expect(mostly_fast.p(90) == 2.0 && mostly_slow.p(90) == 2.0,
         "p90 reads the slow level whenever it covers >= 10% of units");
  expect(mostly_fast.p(50) != mostly_slow.p(50), "the median flips with the slow share");
  Samples a;
  a.add(1);
  Samples b;
  b.add(3);
  a.merge(b);
  expect(a.size() == 2 && a.mean() == 2, "merge and mean");

  // Span self times: a root with two sequential children, one of which has
  // a child of its own; plus a second root on another thread.
  Tracer tracer;
  {
    const Tracer::Scope root(&tracer, "root");
    spin_us(200);
    {
      const Tracer::Scope a_span(&tracer, "a");
      spin_us(300);
      {
        const Tracer::Scope leaf(&tracer, "leaf");
        spin_us(300);
      }
    }
    {
      const Tracer::Scope b_span(&tracer, "b");
      spin_us(300);
    }
    std::thread other([&tracer] {
      const Tracer::Scope r(&tracer, "other_root");
      spin_us(100);
    });
    other.join();
  }
  {
    const Tracer::Scope untraced(nullptr, "ignored");
  }
  tracer.finish();
  expect(tracer.spans().size() == 5, "five spans recorded, the null-tracer scope none");
  expect(tracer.check().empty(), "self times are non-negative and sum to each root");
  const Tracer::Span& root = tracer.spans()[0];
  const Tracer::Span& a_span = tracer.spans()[1];
  const Tracer::Span& leaf = tracer.spans()[2];
  expect(a_span.parent == root.id && leaf.parent == a_span.id, "parents follow nesting");
  expect(leaf.request == root.request, "descendants share the root's request id");
  expect(tracer.spans()[4].parent == 0, "a span on another thread starts its own root");
  expect(a_span.self_ns == a_span.duration_ns() - leaf.duration_ns(),
         "self time excludes the child's interval");
  expect(tracer.durations_ms("leaf").size() == 1 && leaf.self_ns == leaf.duration_ns(),
         "a leaf's self time is its duration");

  std::printf("%s\n", g_failures == 0 ? "all estimator tests passed" : "FAILURES");
  return g_failures == 0 ? 0 : 1;
}
