// Smoke test of the benchmark at tiny sizes: every workload runs untraced
// and traced and passes its checks (the traced run recomputing every span's
// self time), the invariant check rejects hand-built bad views, and the span
// self-time arithmetic holds on a known nesting that folds the span stack.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_trace.hpp"
#include "checks.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

void test_check_view() {
  using pss::NodeDescriptor;
  const std::vector<NodeDescriptor> good = {{4, 0}, {9, 0}, {2, 1}};
  expect(pssbench::check_view(good, 1, 3, 10).empty(), "good view passes");
  const std::vector<NodeDescriptor> duplicate = {{4, 0}, {9, 0}, {4, 2}};
  expect(!pssbench::check_view(duplicate, 1, 3, 10).empty(),
         "duplicate address rejected");
  const std::vector<NodeDescriptor> self = {{1, 0}, {4, 0}};
  expect(!pssbench::check_view(self, 1, 3, 10).empty(),
         "self-descriptor rejected");
  const std::vector<NodeDescriptor> unsorted = {{9, 0}, {4, 0}};
  expect(!pssbench::check_view(unsorted, 1, 3, 10).empty(),
         "unsorted view rejected");
  const std::vector<NodeDescriptor> oversized = {{2, 0}, {3, 0}, {4, 0}, {5, 0}};
  expect(!pssbench::check_view(oversized, 1, 3, 10).empty(),
         "view above c rejected");
}

void test_self_time() {
  using pss::sim::TracePhase;
  using pssbench::Kind;
  pssbench::BenchTrace trace(true);
  // run [0, 1000) holds 118 selects [10 + 2i, 11 + 2i), enough to fold the
  // unclaimed stack twice, then a request_sent [300, 400) whose child, a
  // UDP send [350, 355), is the span that fills the stack to the second
  // fold while request_sent is still in progress.
  trace.open(0);
  for (std::uint64_t i = 0; i < 118; ++i) {
    trace.record({TracePhase::kSelect, 0, 1, 0, 0, 10 + 2 * i, 11 + 2 * i});
  }
  trace.open(350);
  trace.close(Kind::kUdpSend, 350, 355);
  trace.record({TracePhase::kRequestSent, 0, 1, 0, 0, 300, 400});
  trace.close(Kind::kRun, 0, 1000);
  expect(trace.main_stats(Kind::kSelect).self_ns == 118, "select self time");
  expect(trace.main_stats(Kind::kUdpSend).self_ns == 5, "send self time");
  expect(trace.main_stats(Kind::kRequestSent).self_ns == 95,
         "engine span in progress claims its child across a fold");
  expect(trace.main_stats(Kind::kRun).self_ns == 1000 - 118 - 100,
         "run self time excludes its children");
  expect(trace.main_top_level_ns() == 1000, "top-level time is the run span");
  expect(trace.check_self_times().empty(), "containment agrees with the stream");

  // Without kept spans (the benchmark's own traced runs) there is nothing
  // to recompute, and the check passes.
  pssbench::BenchTrace plain;
  plain.open(0);
  plain.close(Kind::kRun, 0, 10);
  expect(plain.check_self_times().empty(), "no kept spans, no check");

  // An engine span with more children than a fold keeps apart loses the
  // oldest to the fold (the benchmark's engine spans have at most one), and
  // the recomputation shows it: 55 selects and 9 sends fill the stack, the
  // fold merges the first send into the selects, and request_sent [300,
  // 400) claims 9 of its 10 sends.
  pssbench::BenchTrace wide(true);
  wide.open(0);
  for (std::uint64_t i = 0; i < 55; ++i) {
    wide.record({TracePhase::kSelect, 0, 1, 0, 0, 10 + 2 * i, 11 + 2 * i});
  }
  for (std::uint64_t j = 0; j < 10; ++j) {
    wide.open(301 + 5 * j);
    wide.close(Kind::kUdpSend, 301 + 5 * j, 303 + 5 * j);
  }
  wide.record({TracePhase::kRequestSent, 0, 1, 0, 0, 300, 400});
  wide.close(Kind::kRun, 0, 1000);
  expect(wide.main_stats(Kind::kRequestSent).self_ns == 82,
         "fold over a wide engine span misattributes one child");
  expect(!wide.check_self_times().empty(),
         "containment detects the misattributed child");
}

void test_workloads() {
  pssbench::Options o;
  o.seed = 7;
  o.seconds = 0.3;
  o.lanes = 2;
  o.udp_rate = 5000;
  pssbench::Sizes& s = o.sizes;
  s.cycle_n = 2000;
  s.event_n = 2000;
  s.wire_n = 1000;
  s.udp_n = 100;
  s.census_cadence = 2;
  s.clustering_sample = 100;
  s.path_sources = 2;
  s.quality_sample = 500;
  s.codec_reps = 200;
  for (const std::string& name : pssbench::workload_names()) {
    const pssbench::RunResult u = pssbench::run_workload(name, o, {false, 2, 0});
    expect(u.errors.empty(), name + " untraced checks pass");
    for (const std::string& e : u.errors) std::printf("  %s\n", e.c_str());
    expect(u.setup_s.size() == 2, name + " records each set-up");
    // Not completed <= attempted: a reply admitted early in the window
    // can answer a request sent before it.
    expect(u.completed > 0, name + " completes exchanges");
    expect(u.clustering > 0 && u.indeg_var > 0, name + " measures quality");
    const bool deterministic = name != "udp_open";
    const pssbench::RunResult t = pssbench::run_workload(
        name, o, {true, 1, deterministic ? u.steps : 0, true});
    expect(t.errors.empty(), name + " traced checks pass");
    for (const std::string& e : t.errors) std::printf("  %s\n", e.c_str());
    if (deterministic) {
      expect(t.steps == u.steps, name + " replays the step count");
      expect(t.digest == u.digest, name + " traced digest equals untraced");
    }
    // The traced run's errors include the self-time recomputation over
    // every kept span and the residual's range.
    expect(t.layer.count("harness.residual_share") == 1,
           name + " reports the layer add-up");
    std::printf("%s: steps=%llu attempted=%llu completed=%llu\n", name.c_str(),
                static_cast<unsigned long long>(u.steps),
                static_cast<unsigned long long>(u.attempted),
                static_cast<unsigned long long>(u.completed));
  }
}

}  // namespace

int main() {
  test_check_view();
  test_self_time();
  test_workloads();
  if (failures == 0) {
    std::printf("smoke: ok\n");
  } else {
    std::printf("smoke: %d failures\n", failures);
  }
  return failures == 0 ? 0 : 1;
}
