// The benchmark's own sim::TraceProbe: span aggregation for the traced run.
//
// Two sources feed it. The engines record their exchange phases through
// the existing attach_trace seam (select, merge_apply, request_sent,
// reply_received, timeout); the benchmark wraps its own calls into public
// entry points (engine run, census, ServiceNode handlers, UDP send/poll)
// with Span guards. Every span lands in the memory of the thread that
// recorded it, so record() never takes a lock after a thread's first span.
//
// Self time. Spans on one thread nest properly and are delivered at their
// end, children before parents. Each thread keeps a stack of completed
// spans not yet claimed by a parent; a finishing span claims every stacked
// span that started at or after its own start, and its self time is its
// duration minus theirs. What is left on a thread's stack at the end is
// that thread's top-level time. Old stack entries are folded into one, so
// the stack stays small over millions of spans: entries that the innermost
// open benchmark span will claim are summed into one, except the newest
// few, which an engine span still in progress may claim (in this
// benchmark such a span has at most one child, a UDP send).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "pss/sim/trace_probe.hpp"

namespace pssbench {

/// Span kinds. The first five equal sim::TracePhase values.
enum class Kind : std::uint8_t {
  kSelect = 0,
  kMergeApply,
  kRequestSent,
  kReplyReceived,
  kTimeout,
  kRun,              ///< engine run_cycles / run (sim layer)
  kDriver,           ///< LoopbackDriver::run_cycles (transport driver)
  kCensusRebuild,    ///< GraphCensus::rebuild
  kCensusClustering, ///< GraphCensus::clustering_sampled
  kCensusPath,       ///< GraphCensus::path_length_sampled
  kOnTick,           ///< ServiceNode::on_tick
  kOnDatagram,       ///< ServiceNode::on_datagram
  kUdpSend,          ///< UdpTransport::send
  kUdpPoll,          ///< UdpTransport::poll
};
inline constexpr std::size_t kKindCount = 14;

/// Layer a kind's self time is charged to in the add-up report.
enum class Layer : std::uint8_t { kProtocol, kSim, kObs, kTransport };
inline constexpr std::size_t kLayerCount = 4;
Layer layer_of(Kind kind);
const char* layer_name(Layer layer);

/// Log-linear duration histogram: 16 sub-buckets per power of two, so a
/// percentile read from it is within about 3% of the recorded value.
class Histogram {
 public:
  void add(std::uint64_t ns) { ++buckets_[bucket(ns)]; ++count_; }
  void merge(const Histogram& other);
  /// Value at quantile q in [0, 1]; 0 when empty.
  double quantile(double q) const;

 private:
  static constexpr std::size_t kSub = 16;
  static std::size_t bucket(std::uint64_t ns);
  static double midpoint(std::size_t bucket);
  std::array<std::uint64_t, 64 * kSub> buckets_{};
  std::uint64_t count_ = 0;
};

struct KindStats {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  Histogram hist;
};

/// Per-thread span memory.
struct LaneBuffer {
  struct Done {
    std::uint64_t start = 0;
    std::uint64_t dur = 0;
  };
  struct Raw {
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    Kind kind = Kind::kRun;
  };
  std::array<KindStats, kKindCount> kinds{};
  std::vector<Done> unclaimed;     ///< completed spans awaiting a parent
  std::vector<std::uint64_t> open; ///< starts of open benchmark spans
  bool keep_spans = false;
  std::vector<Raw> spans;          ///< every span in record order, if kept
  void complete(Kind kind, std::uint64_t start, std::uint64_t end);
  void fold();
  std::uint64_t top_level_ns() const;
};

class BenchTrace final : public pss::sim::TraceProbe {
 public:
  /// The constructing thread is the driving thread of the run. With
  /// `keep_spans` every span is also kept, for check_self_times().
  explicit BenchTrace(bool keep_spans = false);

  BenchTrace(const BenchTrace&) = delete;
  BenchTrace& operator=(const BenchTrace&) = delete;

  bool armed() const override { return true; }
  void record(const pss::sim::TraceSpan& span) override {
    lane().complete(static_cast<Kind>(span.phase), span.start_ns, span.end_ns);
  }

  void open(std::uint64_t start) { lane().open.push_back(start); }
  void close(Kind kind, std::uint64_t start, std::uint64_t end) {
    LaneBuffer& l = lane();
    l.open.pop_back();
    l.complete(kind, start, end);
  }

  /// Stats of one kind summed over every thread.
  KindStats merged(Kind kind) const;
  /// Stats of one kind on the driving thread only.
  const KindStats& main_stats(Kind kind) const { return main_->kinds[static_cast<std::size_t>(kind)]; }
  /// Time covered by top-level spans on the driving thread.
  std::uint64_t main_top_level_ns() const { return main_->top_level_ns(); }
  /// Recomputes every thread's self time per kind from the kept spans,
  /// with each span's parent found by interval containment instead of by
  /// the streaming claim and fold, and returns the first kind whose self
  /// time differs ("" when all agree or no spans were kept).
  std::string check_self_times() const;

 private:
  LaneBuffer& lane();

  std::uint64_t id_;
  bool keep_spans_;
  std::thread::id main_id_;
  LaneBuffer* main_ = nullptr;
  std::mutex mu_;  ///< guards lanes_ (taken once per thread)
  std::vector<std::unique_ptr<LaneBuffer>> lanes_;
};

/// Times one benchmark call into a public entry point; a no-op without a
/// probe, so untraced runs read no clock.
class Span {
 public:
  Span(BenchTrace* trace, Kind kind)
      : trace_(trace),
        kind_(kind),
        start_(trace != nullptr ? pss::sim::trace_clock_ns() : 0) {
    if (trace_ != nullptr) trace_->open(start_);
  }
  ~Span() {
    if (trace_ != nullptr) {
      trace_->close(kind_, start_, pss::sim::trace_clock_ns());
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  BenchTrace* trace_;
  Kind kind_;
  std::uint64_t start_;
};

}  // namespace pssbench
