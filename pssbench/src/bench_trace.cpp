#include "bench_trace.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>

namespace pssbench {

namespace {

std::atomic<std::uint64_t> g_next_trace_id{1};

// Unclaimed completed spans kept individually before the oldest are folded.
constexpr std::size_t kFoldAt = 64;
constexpr std::size_t kKeepNewest = 8;

}  // namespace

Layer layer_of(Kind kind) {
  switch (kind) {
    case Kind::kSelect:
    case Kind::kMergeApply:
    case Kind::kRequestSent:
    case Kind::kReplyReceived:
    case Kind::kTimeout:
      return Layer::kProtocol;
    case Kind::kRun:
      return Layer::kSim;
    case Kind::kCensusRebuild:
    case Kind::kCensusClustering:
    case Kind::kCensusPath:
      return Layer::kObs;
    case Kind::kDriver:
    case Kind::kOnTick:
    case Kind::kOnDatagram:
    case Kind::kUdpSend:
    case Kind::kUdpPoll:
      return Layer::kTransport;
  }
  return Layer::kSim;
}

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kProtocol: return "protocol";
    case Layer::kSim: return "sim";
    case Layer::kObs: return "obs";
    case Layer::kTransport: return "transport";
  }
  return "unknown";
}

std::size_t Histogram::bucket(std::uint64_t ns) {
  if (ns < kSub) return static_cast<std::size_t>(ns);
  const int msb = 63 - std::countl_zero(ns);  // >= 4
  const std::uint64_t sub = (ns >> (msb - 4)) & (kSub - 1);
  return static_cast<std::size_t>(msb - 3) * kSub + static_cast<std::size_t>(sub);
}

double Histogram::midpoint(std::size_t b) {
  if (b < kSub) return static_cast<double>(b);
  const int msb = static_cast<int>(b / kSub) + 3;
  const double width = std::ldexp(1.0, msb - 4);
  const double low = std::ldexp(1.0, msb) + static_cast<double>(b % kSub) * width;
  return low + width / 2;
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen > rank) return midpoint(i);
  }
  return midpoint(buckets_.size() - 1);
}

void LaneBuffer::complete(Kind kind, std::uint64_t start, std::uint64_t end) {
  const std::uint64_t dur = end > start ? end - start : 0;
  std::uint64_t children = 0;
  while (!unclaimed.empty() && unclaimed.back().start >= start) {
    children += unclaimed.back().dur;
    unclaimed.pop_back();
  }
  KindStats& s = kinds[static_cast<std::size_t>(kind)];
  ++s.count;
  s.total_ns += dur;
  s.self_ns += dur > children ? dur - children : 0;
  s.hist.add(dur);
  if (keep_spans) spans.push_back({start, end, kind});
  unclaimed.push_back({start, dur});
  if (unclaimed.size() >= kFoldAt) fold();
}

void LaneBuffer::fold() {
  // The stack is sorted by start. Entries at or after the innermost open
  // benchmark span's start all belong to that span, so summing them keeps
  // its claim exact; the newest few stay apart for an engine span still
  // in progress.
  const std::uint64_t lower = open.empty() ? 0 : open.back();
  const auto first = std::lower_bound(
      unclaimed.begin(), unclaimed.end(), lower,
      [](const Done& d, std::uint64_t t) { return d.start < t; });
  const auto last = unclaimed.end() - static_cast<std::ptrdiff_t>(kKeepNewest);
  if (last - first < 2) return;
  Done merged{first->start, 0};
  for (auto it = first; it != last; ++it) merged.dur += it->dur;
  *first = merged;
  unclaimed.erase(first + 1, last);
}

std::uint64_t LaneBuffer::top_level_ns() const {
  std::uint64_t sum = 0;
  for (const Done& d : unclaimed) sum += d.dur;
  return sum;
}

BenchTrace::BenchTrace(bool keep_spans)
    : id_(g_next_trace_id.fetch_add(1)),
      keep_spans_(keep_spans),
      main_id_(std::this_thread::get_id()) {
  lanes_.push_back(std::make_unique<LaneBuffer>());
  main_ = lanes_.back().get();
  main_->keep_spans = keep_spans;
}

LaneBuffer& BenchTrace::lane() {
  // Per-thread cache keyed by a process-unique probe id, so a probe that
  // reuses a destroyed probe's address never sees its buffers.
  thread_local std::uint64_t cached_id = 0;
  thread_local LaneBuffer* cached = nullptr;
  if (cached_id == id_) return *cached;
  LaneBuffer* buffer = nullptr;
  if (std::this_thread::get_id() == main_id_) {
    buffer = main_;
  } else {
    const std::lock_guard<std::mutex> lock(mu_);
    lanes_.push_back(std::make_unique<LaneBuffer>());
    buffer = lanes_.back().get();
    buffer->keep_spans = keep_spans_;
  }
  cached_id = id_;
  cached = buffer;
  return *buffer;
}

KindStats BenchTrace::merged(Kind kind) const {
  KindStats out;
  for (const auto& lane : lanes_) {
    const KindStats& s = lane->kinds[static_cast<std::size_t>(kind)];
    out.count += s.count;
    out.total_ns += s.total_ns;
    out.self_ns += s.self_ns;
    out.hist.merge(s.hist);
  }
  return out;
}

std::string BenchTrace::check_self_times() const {
  using Raw = LaneBuffer::Raw;
  if (!keep_spans_) return "";
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
    const std::vector<Raw>& spans = lanes_[lane]->spans;
    // Parents before the spans they contain: by start, then longest first,
    // then (equal intervals) the later-recorded one, since a parent is
    // recorded after its children.
    std::vector<std::size_t> order(spans.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (spans[a].start != spans[b].start) return spans[a].start < spans[b].start;
      if (spans[a].end != spans[b].end) return spans[a].end > spans[b].end;
      return a > b;
    });
    const auto dur = [&](std::size_t i) {
      return spans[i].end > spans[i].start ? spans[i].end - spans[i].start : 0;
    };
    std::vector<std::uint64_t> children(spans.size(), 0);
    std::vector<std::size_t> stack;
    for (const std::size_t i : order) {
      while (!stack.empty() &&
             !(spans[i].end <= spans[stack.back()].end && i < stack.back())) {
        stack.pop_back();
      }
      if (!stack.empty()) children[stack.back()] += dur(i);
      stack.push_back(i);
    }
    std::array<std::uint64_t, kKindCount> self{};
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const std::uint64_t d = dur(i);
      self[static_cast<std::size_t>(spans[i].kind)] +=
          d > children[i] ? d - children[i] : 0;
    }
    for (std::size_t k = 0; k < kKindCount; ++k) {
      const std::uint64_t streamed = lanes_[lane]->kinds[k].self_ns;
      if (self[k] != streamed) {
        return "span self time of kind " + std::to_string(k) + " on thread " +
               std::to_string(lane) + ": " + std::to_string(streamed) +
               " ns streamed, " + std::to_string(self[k]) +
               " ns by containment";
      }
    }
  }
  return "";
}

}  // namespace pssbench
