// pssbench: one benchmark for the peer sampling service.
//
//   pssbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--udp-rate <exchanges/s>] [--git <describe>]
//
// --trace 0 runs the workload untraced and reports the end-to-end metrics.
// --trace 1 runs it untraced and then traced with the same seed, sizes and
// step count, checks that both end in the same state digest, and reports
// the per-layer metrics. The last line of stdout is the result object;
// the line before it is the full report. Exit code 1 when a correctness
// check failed, 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "pss/membership/simd.hpp"
#include "pss/obs/json_writer.hpp"
#include "pss/obs/run_recorder.hpp"
#include "workloads.hpp"

#ifndef PSSBENCH_BUILD_TYPE
#define PSSBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using pssbench::quantile;
using pssbench::RunResult;

struct Metric {
  const char* name;
  const char* unit;
};

// Order and units match BENCHMARK.json.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},        {"exch_per_s", "1/s"},  {"cpu_us_per_exch", "us"},
    {"peak_rss_mb", "MiB"},  {"rtt_p50_us", "us"},   {"rtt_p99_us", "us"},
    {"clustering", "ratio"}, {"indeg_var", "deg2"},
};

constexpr Metric kPerLayer[] = {
    {"fail_share", "ratio"},
    {"protocol.select.count", "count"},
    {"protocol.select.self_s", "s"},
    {"protocol.select.ns_p50", "ns"},
    {"protocol.merge_apply.count", "count"},
    {"protocol.merge_apply.self_s", "s"},
    {"protocol.merge_apply.ns_p50", "ns"},
    {"protocol.merge_apply.ns_p99", "ns"},
    {"protocol.request_sent.count", "count"},
    {"protocol.request_sent.self_s", "s"},
    {"protocol.reply_received.count", "count"},
    {"protocol.reply_received.self_s", "s"},
    {"protocol.timeout.count", "count"},
    {"sim.run.wall_s", "s"},
    {"sim.engine.self_s", "s"},
    {"sim.serial_share", "ratio"},
    {"sim.lane_busy_share", "ratio"},
    {"sim.windows", "count"},
    {"sim.deferred_share", "ratio"},
    {"sim.pooled_share", "ratio"},
    {"sim.queue_depth_max", "count"},
    {"sim.pool_slabs", "count"},
    {"sim.bytes_per_node", "B"},
    {"sim.msgs_sent", "count"},
    {"sim.msgs_dropped", "count"},
    {"sim.msgs_to_dead", "count"},
    {"sim.replies_stale", "count"},
    {"obs.census.rebuild_s_p50", "s"},
    {"obs.census.estimators_s_p50", "s"},
    {"obs.census.share", "ratio"},
    {"obs.trace_overhead", "ratio"},
    {"transport.driver.self_s", "s"},
    {"transport.loopback.frames_sent", "count"},
    {"transport.loopback.frames_delivered", "count"},
    {"transport.loopback.in_flight_max", "count"},
    {"transport.codec.encode_ns", "ns"},
    {"transport.codec.decode_ns", "ns"},
    {"transport.codec.est_share", "ratio"},
    {"transport.udp.send.count", "count"},
    {"transport.udp.send.ns_p50", "ns"},
    {"transport.udp.send.failures", "count"},
    {"transport.udp.poll.self_s", "s"},
    {"transport.udp.recv.count", "count"},
    {"transport.udp.recv_per_poll", "count"},
    {"transport.node.on_tick.ns_p50", "ns"},
    {"transport.node.on_datagram.ns_p50", "ns"},
    {"transport.node.frames_rejected", "count"},
    {"harness.gen_late_us_p99", "us"},
    {"harness.residual_share", "ratio"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "pssbench: %s\nusage: pssbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--udp-rate <1/s>] [--git <s>]\n",
               why.c_str());
  std::exit(2);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

const char* level_name(pss::simd::Level level) {
  switch (level) {
    case pss::simd::Level::kScalar: return "scalar";
    case pss::simd::Level::kSSE2: return "sse2";
    case pss::simd::Level::kAVX2: return "avx2";
  }
  return "unknown";
}

double peak_rss_mib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void write_map(pss::obs::JsonWriter& j, const char* key,
               const std::map<std::string, double>& m) {
  j.key(key);
  j.begin_object();
  for (const auto& [k, v] : m) j.field(k, v);
  j.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string git = "unknown";
  long long seed = -1;
  double seconds = 0;
  int trace = -1;
  pssbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") workload = val;
      else if (arg == "--seed") seed = std::stoll(val);
      else if (arg == "--seconds") seconds = std::stod(val);
      else if (arg == "--trace") trace = std::stoi(val);
      else if (arg == "--udp-rate") o.udp_rate = std::stod(val);
      else if (arg == "--git") git = val;
      else usage("unknown option " + arg);
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  const auto& names = pssbench::workload_names();
  if (std::find(names.begin(), names.end(), workload) == names.end()) {
    usage("unknown workload '" + workload + "'");
  }
  if (seed < 0 || seconds <= 0 || (trace != 0 && trace != 1) ||
      o.udp_rate <= 0) {
    usage("--seed, --seconds and --trace are required");
  }
  o.seed = static_cast<std::uint64_t>(seed);
  o.seconds = seconds;
  o.lanes = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);

  RunResult u;
  RunResult t;
  std::vector<std::string> errors;
  std::map<std::string, double> metrics;
  try {
    // With --trace 1 the untraced pass only anchors the digest check and
    // the overhead ratio, so it runs half the window.
    pssbench::Options uo = o;
    if (trace == 1) uo.seconds = o.seconds / 2;
    u = pssbench::run_workload(workload, uo, {false, trace == 0 ? 9u : 1u, 0});
    errors = u.errors;
    if (trace == 1) {
      // udp_open has no digest (it is not deterministic); it replays the
      // same seconds instead of the same steps.
      const bool deterministic = u.digest.has_value();
      t = pssbench::run_workload(workload, uo,
                                 {true, 1, deterministic ? u.steps : 0});
      errors.insert(errors.end(), t.errors.begin(), t.errors.end());
      if (deterministic && t.digest != u.digest) {
        errors.push_back("traced run's state digest differs from the untraced run's");
      }
      metrics = t.layer;
      // Exchanges in flight at the window's edges can tip a loss-free
      // workload's share a hair below 0.
      metrics["fail_share"] = std::max(
          0.0, 1.0 - static_cast<double>(u.completed) /
                         static_cast<double>(u.attempted));
      // udp_open's wall time is fixed by its window, so it compares CPU.
      metrics["obs.trace_overhead"] =
          deterministic ? t.wall_s / u.wall_s : t.cpu_s / u.cpu_s;
    } else {
      metrics["setup_s"] = quantile(u.setup_s, 0.5);
      // Medians over sub-windows where the workload has them, so a stretch
      // of host interference in a minority of them does not set the value.
      std::vector<double> rate, cpu;
      for (const pssbench::Subwindow& w : u.subwindows) {
        rate.push_back(static_cast<double>(w.exchanges) / w.wall_s);
        cpu.push_back(w.cpu_s * 1e6 / static_cast<double>(w.exchanges));
      }
      if (rate.empty()) {
        rate.push_back(static_cast<double>(u.completed) / u.wall_s);
        cpu.push_back(u.cpu_s * 1e6 / static_cast<double>(u.completed));
      }
      metrics["exch_per_s"] = quantile(rate, 0.5);
      metrics["cpu_us_per_exch"] = quantile(cpu, 0.5);
      metrics["peak_rss_mb"] = peak_rss_mib();
      metrics["rtt_p50_us"] = u.rtt_p50_us;
      metrics["rtt_p99_us"] = u.rtt_p99_us;
      metrics["clustering"] = u.clustering;
      metrics["indeg_var"] = u.indeg_var;
    }
    if (u.attempted == 0 || u.completed == 0) errors.push_back("no exchange completed");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pssbench: %s\n", e.what());
    return 1;
  }
  const bool correct = errors.empty();

  std::string report;
  pss::obs::JsonWriter j(report, false);
  j.begin_object();
  j.field("workload", workload);
  j.field("seed", static_cast<std::uint64_t>(o.seed));
  j.field("trace", static_cast<std::uint64_t>(trace));
  j.key("host");
  j.begin_object();
  j.field("cpu", cpu_model());
  j.field("vcpus", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  j.field("lanes", static_cast<std::uint64_t>(o.lanes));
  j.field("simd_detected", level_name(pss::simd::detected_level()));
  j.field("simd_active", level_name(pss::simd::active_level()));
  j.field("compiler", __VERSION__);
  j.field("build_type", PSSBENCH_BUILD_TYPE);
  j.field("git", git);
  j.end_object();
  j.field("window_s", u.wall_s);
  j.field("window_exch_per_s", static_cast<double>(u.completed) / u.wall_s);
  j.field("window_cpu_us_per_exch",
          u.cpu_s * 1e6 / static_cast<double>(u.completed));
  j.field("subwindows", static_cast<std::uint64_t>(u.subwindows.size()));
  j.field("steps", u.steps);
  j.field("attempted", u.attempted);
  j.field("completed", u.completed);
  j.field("unexpected_failures", u.unexpected_failures);
  std::uint64_t samples = 0;
  for (const auto& g : u.latency_us) samples += g.size();
  j.field("latency_samples", samples);
  j.field("latency_subwindows", static_cast<std::uint64_t>(u.latency_us.size()));
  j.key("setup_samples_s");
  j.begin_array();
  for (const double s : u.setup_s) j.value(s);
  j.end_array();
  if (u.digest) j.field("state_digest", pss::obs::to_hex16(*u.digest));
  write_map(j, "untraced_info", u.info);
  if (trace == 1) {
    if (t.digest) j.field("traced_state_digest", pss::obs::to_hex16(*t.digest));
    j.field("traced_window_s", t.wall_s);
    write_map(j, "traced_info", t.info);
  }
  j.key("errors");
  j.begin_array();
  for (const std::string& e : errors) j.value_string(e);
  j.end_array();
  j.end_object();
  std::printf("%s\n", report.c_str());

  std::string result;
  pss::obs::JsonWriter r(result, false);
  r.begin_object();
  r.field("correct", correct);
  r.field("attempted", u.attempted);
  r.field("failed", u.unexpected_failures);
  r.key("metrics");
  r.begin_object();
  for (const Metric& m : trace == 1 ? std::span<const Metric>(kPerLayer)
                                    : std::span<const Metric>(kEndToEnd)) {
    const auto it = metrics.find(m.name);
    r.key(m.name);
    r.begin_object();
    r.field("value", it != metrics.end() ? it->second : 0.0);
    r.field("unit", m.unit);
    r.end_object();
  }
  r.end_object();
  r.end_object();
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}
