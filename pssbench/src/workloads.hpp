// The four workloads. Each builds its world from the seed, times set-up,
// runs a measured window and checks the outcome; a traced run replays the
// untraced run's step count so the two can be compared by state digest.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace pssbench {

/// Problem sizes. The defaults are the benchmark's; the smoke test shrinks
/// them.
struct Sizes {
  std::size_t cycle_n = 100000;
  std::size_t event_n = 100000;
  std::size_t wire_n = 50000;
  std::size_t udp_n = 2000;
  std::uint64_t census_cadence = 8;   ///< cycles between census snapshots
  std::size_t clustering_sample = 1000;
  std::size_t path_sources = 8;
  std::size_t quality_sample = 10000; ///< clustering sample after the window
  std::size_t codec_reps = 20000;     ///< isolated codec calls per batch
};

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10;
  unsigned lanes = 4;
  double udp_rate = 12500;  ///< offered exchanges per second on udp_open
  Sizes sizes;
};

struct RunSpec {
  bool traced = false;
  std::size_t setup_repeats = 1;
  /// Steps to run instead of filling `seconds` (deterministic replays).
  std::uint64_t replay_steps = 0;
  /// Keep every span of a traced run and check the streamed self times
  /// against a recomputation (memory grows with the run; for small sizes).
  bool check_spans = false;
};

/// One stretch of a simulated window (8 steps).
struct Subwindow {
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t exchanges = 0;  ///< completed in the sub-window
};

struct RunResult {
  std::vector<double> setup_s;
  double wall_s = 0;   ///< measured window, wall clock
  double cpu_s = 0;    ///< process user+sys CPU over the window
  std::uint64_t steps = 0;
  std::uint64_t attempted = 0;  ///< exchanges started in the window
  std::uint64_t completed = 0;  ///< exchanges completed in the window
  /// Failures of a kind the workload does not inject (expected 0).
  std::uint64_t unexpected_failures = 0;
  /// rtt samples by sub-window: 8 steps on a simulated workload, 1000
  /// replies on udp_open. A percentile is the median of its sub-window values, so
  /// host stalls in a minority of sub-windows cannot set it.
  std::vector<std::vector<double>> latency_us;
  double rtt_p50_us = 0;
  double rtt_p99_us = 0;
  /// Simulated workloads only; udp_open's rate is fixed by its generator.
  std::vector<Subwindow> subwindows;
  double clustering = 0;
  double indeg_var = 0;
  std::optional<std::uint64_t> digest;
  std::vector<std::string> errors;  ///< failed correctness checks
  std::map<std::string, double> layer;  ///< per-layer metrics
  std::map<std::string, double> info;   ///< accounting detail for the report
};

/// Nearest-rank quantile: the smallest sample with at least q of the
/// samples at or below it (so p99 of 8 samples is the largest); 0 if empty.
double quantile(std::vector<double> v, double q);

const std::vector<std::string>& workload_names();

/// Runs one workload; throws std::invalid_argument for an unknown name.
RunResult run_workload(const std::string& name, const Options& options,
                       const RunSpec& spec);

/// Median encode and decode time, in ns, of one (c+1)-record frame through
/// WireCodec, measured in isolation. Adds an error on a failed round trip.
void time_codec(std::size_t c, std::size_t reps, double& encode_ns,
                double& decode_ns, std::vector<std::string>& errors);

}  // namespace pssbench
