#include "workloads.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench_trace.hpp"
#include "checks.hpp"
#include "pss/common/rng.hpp"
#include "pss/obs/graph_census.hpp"
#include "pss/obs/streaming_observer.hpp"
#include "pss/scenarios/digest.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/sim/parallel_cycle_engine.hpp"
#include "pss/sim/parallel_event_engine.hpp"
#include "pss/transport/loopback_driver.hpp"
#include "pss/transport/loopback_transport.hpp"
#include "pss/transport/service_node.hpp"
#include "pss/transport/udp_transport.hpp"
#include "pss/transport/wire.hpp"

namespace pssbench {

namespace {

using namespace pss;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kViewSize = 30;
constexpr std::uint64_t kQualitySeed = 0x5A3B1EULL;  // clustering estimator
constexpr std::uint64_t kKillSalt = 0xDEADULL;
constexpr std::uint64_t kUdpSalt = 0x0DDULL;
constexpr std::size_t kFireBatch = 32;
constexpr std::size_t kUdpSockets = 4;
constexpr double kUdpWarmupPeriods = 2;
// 100 replies (8 ms at 12.5 k/s) per udp_open sub-window, whose p99 is its
// second-largest sample. A host stall of a few ms then reaches a few
// sub-windows, not most of them as with 80 ms ones, so the median over
// sub-windows keeps to the program's own tail through stretches of host
// contention; a slow path that one exchange in fifty meets still lifts it.
constexpr std::size_t kRttPerSubwindow = 100;
constexpr std::uint64_t kStepsPerSubwindow = 8;

const ProtocolOptions kOptions{kViewSize, false};

double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

/// rtt_p50/p99 from the latency sub-windows: each sub-window's percentile,
/// then the median of those values. The lower tenth of each goes to the
/// report, to tell host stalls (which lift the median but not the lower
/// tenth) from a slower program (which lifts both).
void set_rtt(RunResult& r) {
  std::vector<double> p50, p99;
  for (const std::vector<double>& g : r.latency_us) {
    if (g.empty()) continue;
    p50.push_back(quantile(g, 0.5));
    p99.push_back(quantile(g, 0.99));
  }
  r.rtt_p50_us = quantile(p50, 0.5);
  r.rtt_p99_us = quantile(p99, 0.5);
  r.info["rtt_p50_us.lower_tenth"] = quantile(p50, 0.1);
  r.info["rtt_p99_us.lower_tenth"] = quantile(p99, 0.1);
}

/// Builds the world `spec.setup_repeats` times, keeping the last; each
/// build's time, warm-up included, is one set-up sample.
template <class Make>
auto timed_setup(const RunSpec& spec, RunResult& r, Make&& make) {
  decltype(make()) world;
  for (std::size_t i = 0; i < std::max<std::size_t>(1, spec.setup_repeats); ++i) {
    world.reset();
    const auto t0 = Clock::now();
    world = make();
    r.setup_s.push_back(since(t0));
  }
  return world;
}

/// Runs `step` until the window's seconds have passed, or for exactly
/// `spec.replay_steps` steps. Each step's wall time is one latency sample.
/// Every kStepsPerSubwindow steps (one census period on cycle_observed)
/// form one sub-window, which also records its wall time, CPU time and
/// completed exchanges (`completed()` returns the running total).
template <class Step, class Completed>
void run_window(const Options& o, const RunSpec& spec, RunResult& r,
                Step&& step, Completed&& completed) {
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  double sub_wall = 0;
  double sub_cpu = cpu0;
  std::uint64_t sub_done = completed();
  const auto close = [&](double wall_s, double cpu_s, std::uint64_t done) {
    r.subwindows.push_back({wall_s - sub_wall, cpu_s - sub_cpu, done - sub_done});
    sub_wall = wall_s;
    sub_cpu = cpu_s;
    sub_done = done;
  };
  for (;;) {
    if (spec.replay_steps != 0 ? r.steps >= spec.replay_steps
                               : r.steps > 0 && since(t0) >= o.seconds) {
      break;
    }
    if (r.steps % kStepsPerSubwindow == 0) {
      if (r.steps > 0) close(since(t0), cpu_seconds(), completed());
      r.latency_us.emplace_back();
    }
    const auto s0 = Clock::now();
    step();
    r.latency_us.back().push_back(since(s0) * 1e6);
    ++r.steps;
  }
  r.wall_s = since(t0);
  r.cpu_s = cpu_seconds() - cpu0;
  // A trailing partial sub-window counts only when it is the only one.
  if (r.steps % kStepsPerSubwindow == 0 || r.subwindows.empty()) {
    close(r.wall_s, r.cpu_s + cpu0, completed());
  }
  set_rtt(r);
}

void check_network_views(const sim::Network& net, RunResult& r) {
  std::size_t bad = 0;
  std::string first;
  for (NodeId id = 0; id < net.size(); ++id) {
    if (!net.is_live(id)) continue;
    std::string err = check_view(net.view_span(id), id, kViewSize, net.size());
    if (!err.empty() && bad++ == 0) {
      first = "node " + std::to_string(id) + ": " + err;
    }
  }
  if (bad != 0) {
    r.errors.push_back("view invariants: " + std::to_string(bad) +
                       " bad views, first " + first);
  }
}

void measure_quality(const sim::Network& net, const Sizes& sizes,
                     RunResult& r) {
  obs::GraphCensus census;
  census.rebuild(net);
  Rng rng(kQualitySeed);
  r.clustering = census.clustering_sampled(
      std::min(sizes.quality_sample, census.live_count()), rng);
  r.indeg_var = census.in_degree_stats().variance;
}

void require(bool ok, const std::string& what, RunResult& r) {
  if (!ok) r.errors.push_back(what);
}

std::string counts(std::uint64_t a, std::uint64_t b) {
  return " (" + std::to_string(a) + " != " + std::to_string(b) + ")";
}

/// Per-layer metrics every traced run has: protocol spans, run wall and
/// self times, lane shares, and the driving thread's layer add-up.
void report_trace(const BenchTrace& t, double wall_s, unsigned lanes,
                  RunResult& r) {
  auto& L = r.layer;
  const auto sec = [](std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; };
  const KindStats select = t.merged(Kind::kSelect);
  const KindStats merge = t.merged(Kind::kMergeApply);
  const KindStats sent = t.merged(Kind::kRequestSent);
  const KindStats reply = t.merged(Kind::kReplyReceived);
  L["protocol.select.count"] = static_cast<double>(select.count);
  L["protocol.select.self_s"] = sec(select.self_ns);
  L["protocol.select.ns_p50"] = select.hist.quantile(0.5);
  L["protocol.merge_apply.count"] = static_cast<double>(merge.count);
  L["protocol.merge_apply.self_s"] = sec(merge.self_ns);
  L["protocol.merge_apply.ns_p50"] = merge.hist.quantile(0.5);
  L["protocol.merge_apply.ns_p99"] = merge.hist.quantile(0.99);
  L["protocol.request_sent.count"] = static_cast<double>(sent.count);
  L["protocol.request_sent.self_s"] = sec(sent.self_ns);
  L["protocol.reply_received.count"] = static_cast<double>(reply.count);
  L["protocol.reply_received.self_s"] = sec(reply.self_ns);
  L["protocol.timeout.count"] =
      static_cast<double>(t.merged(Kind::kTimeout).count);

  const KindStats run = t.merged(Kind::kRun);
  const KindStats driver = t.merged(Kind::kDriver);
  double run_wall = sec(run.total_ns + driver.total_ns);
  if (run_wall == 0) run_wall = wall_s;  // udp_open: the loop is the engine
  L["sim.run.wall_s"] = run_wall;
  L["sim.engine.self_s"] = sec(run.self_ns);
  L["transport.driver.self_s"] = sec(driver.self_ns);
  const double lane_work_main =
      sec(t.main_stats(Kind::kMergeApply).total_ns +
          t.main_stats(Kind::kReplyReceived).total_ns);
  const double lane_work_all = sec(merge.total_ns + reply.total_ns);
  L["sim.serial_share"] = lanes > 1 ? 1 - lane_work_main / run_wall : 1.0;
  L["sim.lane_busy_share"] = lane_work_all / (lanes * run_wall);

  const KindStats rebuild = t.merged(Kind::kCensusRebuild);
  const KindStats clustering = t.merged(Kind::kCensusClustering);
  const KindStats path = t.merged(Kind::kCensusPath);
  L["obs.census.rebuild_s_p50"] = rebuild.hist.quantile(0.5) * 1e-9;
  L["obs.census.estimators_s_p50"] =
      (clustering.hist.quantile(0.5) + path.hist.quantile(0.5)) * 1e-9;
  L["obs.census.share"] =
      sec(rebuild.total_ns + clustering.total_ns + path.total_ns) / wall_s;

  const std::string attribution = t.check_self_times();
  require(attribution.empty(), attribution, r);

  // The driving thread's timeline: self time per layer plus the residual
  // no span covers make up the traced wall. The spans lie inside the
  // window, so the residual is a share in [0, 1); a span counted twice at
  // top level or none counted fails that. The slack below 0 allows for
  // the span clock (system) drifting from the window's (steady).
  std::array<double, kLayerCount> layer_s{};
  for (std::size_t k = 0; k < kKindCount; ++k) {
    const Kind kind = static_cast<Kind>(k);
    layer_s[static_cast<std::size_t>(layer_of(kind))] +=
        sec(t.main_stats(kind).self_ns);
  }
  const double covered = sec(t.main_top_level_ns());
  const double residual = wall_s - covered;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    r.info[std::string("layers.") + layer_name(static_cast<Layer>(l)) + "_s"] =
        layer_s[l];
  }
  r.info["layers.harness_s"] = residual;
  r.info["layers.traced_wall_s"] = wall_s;
  L["harness.residual_share"] = residual / wall_s;
  require(residual / wall_s >= -1e-3 && residual / wall_s < 1,
          "layer add-up: spans cover " + std::to_string(covered) + " s of a " +
              std::to_string(wall_s) + " s window",
          r);
}

// ---------------------------------------------------------------------------
// cycle_observed

/// The StreamingObserver's census calls, each wrapped in a span. The traced
/// run attaches this in the observer's place (same configuration, same
/// estimator seed); neither mutates the network.
class CensusProbe final : public sim::SnapshotProbe {
 public:
  explicit CensusProbe(const obs::ObserverConfig& config)
      : config_(config), rng_(config.seed) {}
  void on_snapshot(const sim::Network& network, Cycle) override {
    {
      Span s(trace, Kind::kCensusRebuild);
      census_.rebuild(network);
    }
    {
      Span s(trace, Kind::kCensusClustering);
      census_.clustering_sampled(config_.clustering_sample, rng_);
    }
    {
      Span s(trace, Kind::kCensusPath);
      census_.path_length_sampled(config_.path_sources, rng_);
    }
  }
  BenchTrace* trace = nullptr;

 private:
  obs::ObserverConfig config_;
  Rng rng_;
  obs::GraphCensus census_;
};

struct CycleWorld {
  CycleWorld(const Options& o, bool traced)
      : net(sim::bootstrap::make_random(ProtocolSpec::newscast(), kOptions,
                                        o.sizes.cycle_n, o.seed)),
        engine(net, {o.lanes, sim::ParallelPolicy::kDeterministic}),
        observer(config(o)),
        probe(config(o)) {
    sim::SnapshotProbe& p = traced ? static_cast<sim::SnapshotProbe&>(probe)
                                   : observer;
    engine.attach_probe(p, o.sizes.census_cadence);
    // No census here: set-up times the build, and the window's first census
    // sizes its storage in one sub-window of many.
    engine.run(1);
  }
  static obs::ObserverConfig config(const Options& o) {
    obs::ObserverConfig c;
    c.clustering_sample = o.sizes.clustering_sample;
    c.path_sources = o.sizes.path_sources;
    return c;
  }
  sim::Network net;
  sim::ParallelCycleEngine engine;
  obs::StreamingObserver observer;
  CensusProbe probe;
};

RunResult cycle_observed(const Options& o, const RunSpec& spec) {
  RunResult r;
  auto w = timed_setup(spec, r, [&] {
    return std::make_unique<CycleWorld>(o, spec.traced);
  });
  std::unique_ptr<BenchTrace> trace;
  if (spec.traced) {
    trace = std::make_unique<BenchTrace>(spec.check_spans);
    w->engine.attach_trace(*trace);
    w->probe.trace = trace.get();
  }
  const sim::EngineStats s0 = w->engine.stats();
  run_window(
      o, spec, r,
      [&] {
        Span s(trace.get(), Kind::kRun);
        w->engine.run(1);
      },
      [&] { return w->engine.stats().exchanges; });
  const sim::EngineStats s1 = w->engine.stats();
  const std::uint64_t failed = (s1.failed_contacts - s0.failed_contacts) +
                               (s1.empty_views - s0.empty_views);
  r.completed = s1.exchanges - s0.exchanges;
  r.attempted = r.completed + failed;
  r.unexpected_failures = failed;  // no node dies, every view is full
  require(failed == 0, "cycle: failed contacts or empty views without churn", r);
  check_network_views(w->net, r);
  measure_quality(w->net, o.sizes, r);
  r.digest = scenarios::state_digest(w->net);
  if (trace) {
    report_trace(*trace, r.wall_s, w->engine.threads(), r);
    r.layer["sim.bytes_per_node"] =
        static_cast<double>(w->net.resident_bytes()) / w->net.size();
  }
  return r;
}

// ---------------------------------------------------------------------------
// event_churn

struct EventWorld {
  explicit EventWorld(const Options& o)
      : net(sim::bootstrap::make_random(ProtocolSpec::newscast(), kOptions,
                                        o.sizes.event_n, o.seed)),
        engine(net, sim::EventEngineConfig{1.0, 0.01, 0.10, 0.05, 0.5},
               o.lanes) {
    engine.run_cycles(1);
  }
  sim::Network net;
  sim::ParallelEventEngine engine;
};

std::uint64_t total_received(const sim::Network& net) {
  std::uint64_t sum = 0;
  for (const NodeStats& s : net.arena().stats) sum += s.received;
  return sum;
}

RunResult event_churn(const Options& o, const RunSpec& spec) {
  RunResult r;
  auto w = timed_setup(spec, r, [&] { return std::make_unique<EventWorld>(o); });
  Rng kill_rng(o.seed ^ kKillSalt);
  w->net.kill_random(w->net.size() / 10, kill_rng);
  std::unique_ptr<BenchTrace> trace;
  if (spec.traced) {
    trace = std::make_unique<BenchTrace>(spec.check_spans);
    w->engine.attach_trace(*trace);
  }
  sim::ParallelEventEngine& e = w->engine;
  const sim::EventEngineStats s0 = e.stats();
  const std::uint64_t windows0 = e.windows();
  const std::uint64_t deferred0 = e.deferred_tasks();
  const std::uint64_t pooled0 = e.pooled_tasks();
  std::size_t queue_max = 0;
  run_window(
      o, spec, r,
      [&] {
        Span s(trace.get(), Kind::kRun);
        e.run_cycles(1);
        queue_max = std::max(queue_max, e.queued_events());
      },
      [&] { return e.stats().replies_delivered; });
  const sim::EventEngineStats s1 = e.stats();
  r.attempted = s1.wakeups - s0.wakeups;
  r.completed = s1.replies_delivered - s0.replies_delivered;
  // Loss, dead peers and the timeouts they cause are injected: none of
  // this workload's failures is unexpected.

  // Accounting since construction. Every message is delivered (a request
  // handled at a live node, or a reply admitted or found stale), dropped,
  // addressed to the dead, or in flight; in-flight messages are exactly the
  // slabs in use and the queued events beyond one wake-up per node. Stale
  // counts only arrivals because reply_timeout < period, so no pending
  // exchange is ever superseded.
  const std::uint64_t in_flight = e.message_pool_in_use();
  const std::uint64_t delivered =
      total_received(w->net) + s1.replies_delivered + s1.replies_stale;
  const std::uint64_t accounted =
      delivered + s1.messages_dropped + s1.messages_to_dead + in_flight;
  require(s1.messages_sent == accounted,
          "event accounting: sent != delivered + dropped + to-dead + in flight" +
              counts(s1.messages_sent, accounted),
          r);
  require(e.queued_events() == w->net.size() + in_flight,
          "event accounting: queued events != wake-ups + in flight" +
              counts(e.queued_events(), w->net.size() + in_flight),
          r);
  r.info["accounting.sent"] = static_cast<double>(s1.messages_sent);
  r.info["accounting.delivered"] = static_cast<double>(delivered);
  r.info["accounting.in_flight"] = static_cast<double>(in_flight);

  check_network_views(w->net, r);
  measure_quality(w->net, o.sizes, r);
  r.digest = scenarios::state_digest(w->net);
  if (trace) {
    report_trace(*trace, r.wall_s, e.threads(), r);
    auto& L = r.layer;
    const auto d = [](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(a - b);
    };
    const double deferred = d(e.deferred_tasks(), deferred0);
    L["sim.windows"] = d(e.windows(), windows0);
    L["sim.deferred_share"] =
        deferred / d(s1.wakeups + s1.messages_sent - s1.messages_dropped,
                     s0.wakeups + s0.messages_sent - s0.messages_dropped);
    L["sim.pooled_share"] = deferred > 0 ? d(e.pooled_tasks(), pooled0) / deferred : 0;
    L["sim.queue_depth_max"] = static_cast<double>(queue_max);
    L["sim.pool_slabs"] = static_cast<double>(e.message_pool_slabs());
    L["sim.bytes_per_node"] =
        static_cast<double>(w->net.resident_bytes() + e.resident_bytes()) /
        w->net.size();
    L["sim.msgs_sent"] = d(s1.messages_sent, s0.messages_sent);
    L["sim.msgs_dropped"] = d(s1.messages_dropped, s0.messages_dropped);
    L["sim.msgs_to_dead"] = d(s1.messages_to_dead, s0.messages_to_dead);
    L["sim.replies_stale"] = d(s1.replies_stale, s0.replies_stale);
  }
  return r;
}

// ---------------------------------------------------------------------------
// wire_loopback

struct WireWorld {
  explicit WireWorld(const Options& o)
      : net(sim::bootstrap::make_random(ProtocolSpec::newscast(), kOptions,
                                        o.sizes.wire_n, o.seed)),
        bus(transport::LoopbackConfig{0.01, 0.10, 0, 0, 0, 0}, net.rng()),
        driver(net, bus, transport::LoopbackDriverConfig{1.0, 0.5}) {
    driver.run_cycles(1);
  }
  sim::Network net;
  transport::LoopbackTransport bus;
  transport::LoopbackDriver driver;
};

void add_codec_layer(const Options& o, std::uint64_t encoded,
                     std::uint64_t decoded, double wall_s, RunResult& r) {
  double encode_ns = 0;
  double decode_ns = 0;
  time_codec(kViewSize, o.sizes.codec_reps, encode_ns, decode_ns, r.errors);
  r.layer["transport.codec.encode_ns"] = encode_ns;
  r.layer["transport.codec.decode_ns"] = decode_ns;
  r.layer["transport.codec.est_share"] =
      (encode_ns * static_cast<double>(encoded) +
       decode_ns * static_cast<double>(decoded)) *
      1e-9 / wall_s;
}

RunResult wire_loopback(const Options& o, const RunSpec& spec) {
  RunResult r;
  auto w = timed_setup(spec, r, [&] { return std::make_unique<WireWorld>(o); });
  std::unique_ptr<BenchTrace> trace;
  if (spec.traced) {
    trace = std::make_unique<BenchTrace>(spec.check_spans);
    w->driver.attach_trace(*trace);
  }
  const sim::EventEngineStats s0 = w->driver.engine_stats();
  const transport::LoopbackStats b0 = w->bus.stats();
  std::size_t in_flight_max = 0;
  run_window(
      o, spec, r,
      [&] {
        Span s(trace.get(), Kind::kDriver);
        w->driver.run_cycles(1);
        in_flight_max = std::max(in_flight_max, w->bus.in_flight());
      },
      [&] { return w->driver.engine_stats().replies_delivered; });
  const sim::EventEngineStats s1 = w->driver.engine_stats();
  const transport::LoopbackStats b1 = w->bus.stats();
  r.attempted = s1.wakeups - s0.wakeups;
  r.completed = s1.replies_delivered - s0.replies_delivered;
  // No loss and no deaths: a stale reply, a message to the dead or a
  // rejected frame is unexpected.
  r.unexpected_failures = (s1.replies_stale - s0.replies_stale) +
                          (s1.messages_to_dead - s0.messages_to_dead) +
                          w->driver.rejected_frames();
  require(r.unexpected_failures == 0,
          "wire: stale reply, message to the dead or rejected frame without "
          "loss or deaths",
          r);

  const std::uint64_t bus_in = b1.frames_sent + b1.frames_duplicated;
  const std::uint64_t bus_out =
      b1.frames_delivered + b1.frames_dropped + w->bus.in_flight();
  require(bus_in == bus_out,
          "wire accounting: sent != delivered + dropped + in flight" +
              counts(bus_in, bus_out),
          r);
  const std::uint64_t handled = total_received(w->net) + s1.replies_delivered +
                                s1.replies_stale + s1.messages_to_dead +
                                w->driver.rejected_frames();
  require(b1.frames_delivered == handled,
          "wire accounting: delivered frames != handled frames" +
              counts(b1.frames_delivered, handled),
          r);
  r.info["accounting.sent"] = static_cast<double>(b1.frames_sent);
  r.info["accounting.delivered"] = static_cast<double>(b1.frames_delivered);
  r.info["accounting.in_flight"] = static_cast<double>(w->bus.in_flight());

  check_network_views(w->net, r);
  measure_quality(w->net, o.sizes, r);
  r.digest = scenarios::state_digest(w->net);
  if (trace) {
    report_trace(*trace, r.wall_s, 1, r);
    auto& L = r.layer;
    L["transport.loopback.frames_sent"] =
        static_cast<double>(b1.frames_sent - b0.frames_sent);
    L["transport.loopback.frames_delivered"] =
        static_cast<double>(b1.frames_delivered - b0.frames_delivered);
    L["transport.loopback.in_flight_max"] = static_cast<double>(in_flight_max);
    L["transport.node.frames_rejected"] =
        static_cast<double>(w->driver.rejected_frames());
    L["sim.bytes_per_node"] =
        static_cast<double>(w->net.resident_bytes()) / w->net.size();
    L["sim.msgs_sent"] = static_cast<double>(s1.messages_sent - s0.messages_sent);
    L["sim.msgs_dropped"] =
        static_cast<double>(s1.messages_dropped - s0.messages_dropped);
    L["sim.msgs_to_dead"] =
        static_cast<double>(s1.messages_to_dead - s0.messages_to_dead);
    L["sim.replies_stale"] =
        static_cast<double>(s1.replies_stale - s0.replies_stale);
    add_codec_layer(o, b1.frames_sent - b0.frames_sent,
                    b1.frames_delivered - b0.frames_delivered, r.wall_s, r);
  }
  return r;
}

// ---------------------------------------------------------------------------
// udp_open

/// Times UdpTransport::send and poll for the traced run.
class TracedTransport final : public transport::Transport {
 public:
  explicit TracedTransport(transport::Transport& inner) : inner_(&inner) {}
  bool send(NodeId to, std::span<const std::byte> frame) override {
    Span s(trace, Kind::kUdpSend);
    return inner_->send(to, frame);
  }
  std::size_t poll(const transport::FrameHandler& handler) override {
    Span s(trace, Kind::kUdpPoll);
    return inner_->poll(handler);
  }
  BenchTrace* trace = nullptr;

 private:
  transport::Transport* inner_;
};

/// `k` distinct free loopback ports, found by binding port 0.
std::vector<std::uint16_t> free_ports(std::size_t k) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < k; ++i) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd < 0) break;
    fds.push_back(fd);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      break;
    }
    ports.push_back(ntohs(addr.sin_port));
  }
  for (const int fd : fds) ::close(fd);
  if (ports.size() != k) throw std::runtime_error("no free loopback UDP port");
  return ports;
}

struct UdpWorld {
  UdpWorld(const Options& o, bool traced)
      : n(o.sizes.udp_n), period_s(static_cast<double>(n) / o.udp_rate) {
    const std::size_t k = std::min(kUdpSockets, n);
    const transport::WireCodec codec(kViewSize);
    const std::vector<std::uint16_t> ports = free_ports(k);
    for (std::size_t i = 0; i < n; ++i) {
      book.set(static_cast<NodeId>(i), "127.0.0.1", ports[i % k]);
    }
    for (std::size_t s = 0; s < k; ++s) {
      sockets.push_back(std::make_unique<transport::UdpTransport>(
          book, static_cast<NodeId>(s), codec.max_frame_bytes()));
      if (traced) {
        traced_sockets.push_back(std::make_unique<TracedTransport>(*sockets[s]));
        endpoints.push_back(traced_sockets.back().get());
      } else {
        endpoints.push_back(sockets[s].get());
      }
    }
    Rng boot(o.seed);
    std::vector<NodeId> contacts;
    for (std::size_t i = 0; i < n; ++i) {
      nodes.emplace_back(static_cast<NodeId>(i), ProtocolSpec::newscast(),
                         kOptions, Rng(o.seed ^ (kUdpSalt + i)),
                         *endpoints[i % k]);
      contacts.clear();
      while (contacts.size() < std::min(kViewSize, n - 1)) {
        const auto peer = static_cast<NodeId>(boot.below(n));
        if (peer != i &&
            std::find(contacts.begin(), contacts.end(), peer) == contacts.end()) {
          contacts.push_back(peer);
        }
      }
      nodes.back().init(contacts);
      phase.push_back(boot.uniform() * period_s);
    }
    order.resize(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<NodeId>(i);
    std::sort(order.begin(), order.end(),
              [&](NodeId a, NodeId b) { return phase[a] < phase[b]; });
    due.resize(n);
    start = Clock::now();
    pump(start + seconds(kUdpWarmupPeriods * period_s), nullptr);
  }

  static Clock::duration seconds(double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  }
  double units(Clock::time_point t) const {
    return std::chrono::duration<double>(t - start).count() / period_s;
  }
  Clock::time_point next_due() const {
    return start + seconds(phase[order[next]] + static_cast<double>(round) * period_s);
  }

  /// Samples taken while pumping the window.
  struct Samples {
    std::vector<std::vector<double>>* rtt_us;  ///< kRttPerSubwindow each
    std::vector<double>* late_us;
  };

  /// The open-loop generator: fires every due active thread, drains the
  /// sockets, and sleeps until the next due time when both were idle.
  void pump(Clock::time_point until, const Samples* samples) {
    const auto handler = [&](NodeId to, std::span<const std::byte> bytes) {
      if (to >= n) {
        ++misrouted;
        return;
      }
      transport::ServiceNode& node = nodes[to];
      const std::uint64_t before = node.stats().replies_delivered;
      {
        Span s(trace, Kind::kOnDatagram);
        node.on_datagram(bytes, units(Clock::now()));
      }
      if (samples != nullptr && node.stats().replies_delivered != before) {
        auto& groups = *samples->rtt_us;
        if (groups.empty() || groups.back().size() == kRttPerSubwindow) {
          groups.emplace_back();
        }
        groups.back().push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - due[to])
                .count());
      }
    };
    for (;;) {
      auto now = Clock::now();
      if (now >= until) return;
      std::size_t events = 0;
      // At most kFireBatch ticks between socket drains: after a stall the
      // overdue ticks go out interleaved with their replies instead of as
      // one burst that could overflow the socket buffers.
      for (Clock::time_point d = next_due(); d <= now && events < kFireBatch;
           d = next_due()) {
        const NodeId id = order[next];
        due[id] = d;
        if (samples != nullptr) {
          samples->late_us->push_back(
              std::chrono::duration<double, std::micro>(now - d).count());
        }
        {
          Span s(trace, Kind::kOnTick);
          nodes[id].on_tick(units(now));
        }
        if (++next == n) {
          next = 0;
          ++round;
        }
        ++events;
        now = Clock::now();
      }
      for (transport::Transport* t : endpoints) events += t->poll(handler);
      if (events == 0) {
        std::this_thread::sleep_until(
            std::min({next_due(), now + std::chrono::microseconds(200), until}));
      }
    }
  }

  /// Polls until the sockets stay quiet for `quiet_passes` 1 ms passes.
  void drain(int quiet_passes) {
    const auto handler = [&](NodeId to, std::span<const std::byte> bytes) {
      if (to >= n) {
        ++misrouted;
        return;
      }
      nodes[to].on_datagram(bytes, units(Clock::now()));
    };
    for (int quiet = 0; quiet < quiet_passes;) {
      std::size_t got = 0;
      for (transport::Transport* t : endpoints) got += t->poll(handler);
      quiet = got == 0 ? quiet + 1 : 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  void set_trace(BenchTrace* t) {
    trace = t;
    for (auto& s : traced_sockets) s->trace = t;
    for (auto& node : nodes) {
      if (t != nullptr) node.attach_trace(*t);
    }
  }

  std::size_t n;
  double period_s;
  transport::UdpAddressBook book;  // sockets keep a pointer to it
  std::vector<std::unique_ptr<transport::UdpTransport>> sockets;
  std::vector<std::unique_ptr<TracedTransport>> traced_sockets;
  std::vector<transport::Transport*> endpoints;
  std::deque<transport::ServiceNode> nodes;
  std::vector<double> phase;  ///< seconds into each period
  std::vector<NodeId> order;  ///< nodes by phase
  std::vector<Clock::time_point> due;  ///< latest due time per node
  Clock::time_point start;
  std::size_t next = 0;
  std::uint64_t round = 0;
  std::uint64_t misrouted = 0;
  BenchTrace* trace = nullptr;
};

struct UdpTotals {
  std::uint64_t wakeups = 0, replies = 0, requests = 0, replies_sent = 0,
                rejected = 0, sent = 0, failures = 0, received = 0;
};

UdpTotals udp_totals(const UdpWorld& w) {
  UdpTotals t;
  for (const transport::ServiceNode& node : w.nodes) {
    t.wakeups += node.stats().wakeups;
    t.replies += node.stats().replies_delivered;
    t.requests += node.stats().requests_sent;
    t.replies_sent += node.node_stats().replies_sent;
    t.rejected += node.stats().frames_rejected;
  }
  for (const auto& s : w.sockets) {
    t.sent += s->stats().datagrams_sent;
    t.failures += s->stats().send_failures;
    t.received += s->stats().datagrams_received;
  }
  return t;
}

RunResult udp_open(const Options& o, const RunSpec& spec) {
  // Sleeps in the generator must wake on time, not up to 50 us late.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  RunResult r;
  auto w = timed_setup(spec, r, [&] {
    return std::make_unique<UdpWorld>(o, spec.traced);
  });
  std::unique_ptr<BenchTrace> trace;
  if (spec.traced) {
    trace = std::make_unique<BenchTrace>(spec.check_spans);
    w->set_trace(trace.get());
  }
  std::vector<double> late_us;
  const UdpTotals t0 = udp_totals(*w);
  const double cpu0 = cpu_seconds();
  const auto start = Clock::now();
  const UdpWorld::Samples samples{&r.latency_us, &late_us};
  w->pump(start + UdpWorld::seconds(o.seconds), &samples);
  r.wall_s = since(start);
  r.cpu_s = cpu_seconds() - cpu0;
  if (r.latency_us.size() > 1 && r.latency_us.back().size() < kRttPerSubwindow) {
    r.latency_us.pop_back();  // the window's partial last sub-window
  }
  set_rtt(r);
  const UdpTotals t1 = udp_totals(*w);
  r.steps = w->round;
  r.attempted = t1.wakeups - t0.wakeups;
  r.completed = t1.replies - t0.replies;
  if (trace) {
    // Before the drain, whose datagrams still reach the nodes' probe.
    report_trace(*trace, r.wall_s, 1, r);
    auto& L = r.layer;
    const KindStats send = trace->merged(Kind::kUdpSend);
    const KindStats poll = trace->merged(Kind::kUdpPoll);
    const double received = static_cast<double>(t1.received - t0.received);
    L["transport.udp.send.count"] = static_cast<double>(send.count);
    L["transport.udp.send.ns_p50"] = send.hist.quantile(0.5);
    L["transport.udp.send.failures"] = static_cast<double>(t1.failures - t0.failures);
    L["transport.udp.poll.self_s"] = static_cast<double>(poll.self_ns) * 1e-9;
    L["transport.udp.recv.count"] = received;
    L["transport.udp.recv_per_poll"] =
        poll.count > 0 ? received / static_cast<double>(poll.count) : 0;
    L["transport.node.on_tick.ns_p50"] =
        trace->merged(Kind::kOnTick).hist.quantile(0.5);
    L["transport.node.on_datagram.ns_p50"] =
        trace->merged(Kind::kOnDatagram).hist.quantile(0.5);
    L["transport.node.frames_rejected"] = static_cast<double>(t1.rejected - t0.rejected);
    L["harness.gen_late_us_p99"] = quantile(late_us, 0.99);
    add_codec_layer(o, send.count, t1.received - t0.received, r.wall_s, r);
  }
  w->set_trace(nullptr);
  w->drain(20);

  // After the drain every exchange has been answered or lost, and every
  // datagram handed to send() was received or refused by send().
  const UdpTotals end = udp_totals(*w);
  r.unexpected_failures =
      (end.wakeups - end.replies) + end.rejected + w->misrouted;
  const std::uint64_t handed = end.requests + end.replies_sent;
  require(handed == end.received + end.failures,
          "udp accounting: sent != received + send failures" +
              counts(handed, end.received + end.failures),
          r);
  r.info["accounting.sent"] = static_cast<double>(handed);
  r.info["accounting.received"] = static_cast<double>(end.received);
  r.info["accounting.send_failures"] = static_cast<double>(end.failures);
  r.info["offered_rate"] = o.udp_rate;
  r.info["period_s"] = w->period_s;

  // Views and sample quality, through a simulation network holding copies.
  sim::Network copy(ProtocolSpec::newscast(), kOptions, o.seed);
  copy.add_nodes(w->n);
  const std::size_t errors_before = r.errors.size();
  std::size_t bad = 0;
  for (std::size_t i = 0; i < w->n; ++i) {
    const auto view = w->nodes[i].view();
    const std::string err = check_view(view, static_cast<NodeId>(i), kViewSize, w->n);
    if (!err.empty()) {
      if (bad++ == 0) r.errors.push_back("view invariants: node " + std::to_string(i) + ": " + err);
      continue;
    }
    copy.arena().views.assign(static_cast<NodeId>(i), view);
  }
  if (r.errors.size() == errors_before) measure_quality(copy, o.sizes, r);

  return r;
}

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "cycle_observed", "event_churn", "wire_loopback", "udp_open"};
  return names;
}

RunResult run_workload(const std::string& name, const Options& options,
                       const RunSpec& spec) {
  if (name == "cycle_observed") return cycle_observed(options, spec);
  if (name == "event_churn") return event_churn(options, spec);
  if (name == "wire_loopback") return wire_loopback(options, spec);
  if (name == "udp_open") return udp_open(options, spec);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

void time_codec(std::size_t c, std::size_t reps, double& encode_ns,
                double& decode_ns, std::vector<std::string>& errors) {
  std::vector<NodeDescriptor> entries;
  for (std::size_t i = 0; i <= c; ++i) {
    entries.push_back({static_cast<NodeId>(1000 + 7 * i),
                       static_cast<HopCount>(i / 4)});
  }
  std::sort(entries.begin(), entries.end(), ByHopThenAddress{});
  transport::WireFrame frame;
  frame.type = transport::FrameType::kRequest;
  frame.spec = ProtocolSpec::newscast();
  frame.from = 1;
  frame.to = 2;
  frame.tick = 7;
  frame.exchange_id = 42;
  frame.entries = entries;
  transport::WireCodec codec(c);
  std::vector<std::byte> bytes;
  transport::ParsedFrame parsed;
  std::uint64_t sink = 0;
  std::vector<double> enc, dec;
  for (int batch = 0; batch < 5; ++batch) {
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) {
      frame.exchange_id = i;
      codec.encode(frame, bytes);
      sink += bytes.size();
    }
    enc.push_back(since(t0) * 1e9 / static_cast<double>(reps));
    t0 = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) {
      sink += static_cast<std::uint64_t>(codec.decode(bytes, parsed));
      sink += parsed.entries.size();
    }
    dec.push_back(since(t0) * 1e9 / static_cast<double>(reps));
  }
  const bool round_trip =
      codec.decode(bytes, parsed) == transport::WireError::kOk &&
      parsed.from == frame.from && parsed.to == frame.to &&
      std::equal(parsed.entries.begin(), parsed.entries.end(), entries.begin(),
                 entries.end());
  if (!round_trip || sink == 0) errors.push_back("codec round trip failed");
  std::sort(enc.begin(), enc.end());
  std::sort(dec.begin(), dec.end());
  encode_ns = enc[enc.size() / 2];
  decode_ns = dec[dec.size() / 2];
}

}  // namespace pssbench
