#include "src/tracer.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace perfbench {

std::uint64_t HostNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRound: return "round";
    case Layer::kBoot: return "workload.boot";
    case Layer::kRunFor: return "kernel.run_for";
    case Layer::kWake: return "fusion.wake";
    case Layer::kAccess: return "kernel.access";
    case Layer::kFaultAccess: return "kernel.fault_access";
    case Layer::kQuantum: return "fleet.quantum";
    case Layer::kGenerate: return "workload.generate";
    case Layer::kSave: return "snapshot.save";
    case Layer::kRestore: return "snapshot.restore";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer::Tracer() : epoch_ns_(HostNowNs()) {
  spans_.reserve(1 << 16);
  // An empty span still measures one clock read; calibrate that cost so it
  // can be taken off every span (it is a sizeable part of a ~300 ns access).
  std::vector<std::uint64_t> empty(1001);
  for (std::uint64_t& d : empty) {
    const std::uint32_t id = Begin(Layer::kRound);
    End(id);
    d = spans_[id].end_ns - spans_[id].start_ns;
  }
  std::nth_element(empty.begin(), empty.begin() + 500, empty.end());
  clock_cost_ns_ = static_cast<double>(empty[500]);
  spans_.clear();
}

std::uint32_t Tracer::Begin(Layer layer, std::uint32_t weight) {
  const auto id = static_cast<std::uint32_t>(spans_.size());
  Span span;
  span.layer = layer;
  span.parent = open_.empty() ? kNoParent : open_.back();
  span.run = run_;
  span.weight = weight;
  spans_.push_back(span);
  open_.push_back(id);
  spans_.back().start_ns = HostNowNs();  // last, so the bookkeeping is not timed
  return id;
}

void Tracer::End(std::uint32_t id, Layer layer) {
  const std::uint64_t now = HostNowNs();  // first, for the same reason
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("tracer: spans closed out of order");
  }
  open_.pop_back();
  Span& span = spans_[id];
  span.end_ns = now;
  span.layer = layer;
}

double Tracer::Duration(const Span& s) const {
  return std::max(0.0, static_cast<double>(s.end_ns - s.start_ns) - clock_cost_ns_);
}

Tracer::Analysis Tracer::Analyze() const {
  // Children are opened after their parent, so a reverse walk finishes every
  // span's children before the span itself.
  //
  // What a span's children cover is exact for unsampled children. Sampled
  // children (weight > 1) give only an estimate, own time x weight, and the
  // estimate runs high: a timed access cannot overlap its neighbours the way
  // untimed ones do. Their parent's duration, less its exact children, is the
  // time they really took together, so the estimates are scaled to fill it:
  // the sample decides the split between layers, the parent span the total.
  const std::size_t n = spans_.size();
  std::vector<double> exact(n, 0.0);
  std::vector<double> estimate(n, 0.0);
  std::vector<double> covered(n, 0.0);  // time a span's children account for
  Analysis a;
  a.raw_self.assign(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    const Span& s = spans_[i];
    const double duration = Duration(s);
    covered[i] = estimate[i] > 0.0 ? std::max(duration, exact[i]) : exact[i];
    a.raw_self[i] = duration - covered[i];
    if (s.parent == kNoParent) {
      continue;
    }
    if (s.weight > 1) {
      estimate[s.parent] += a.raw_self[i] * s.weight;
      exact[s.parent] += covered[i];  // a wake inside a sampled access happened once
    } else {
      exact[s.parent] += duration;
    }
  }
  a.self.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (s.weight > 1 && s.parent != kNoParent) {
      const Span& p = spans_[s.parent];
      const double room = std::max(0.0, Duration(p) - exact[s.parent]);
      a.self[i] = a.raw_self[i] * s.weight * room / estimate[s.parent];
    } else {
      a.self[i] = a.raw_self[i];
    }
  }
  return a;
}

Tracer::LayerTotals Tracer::SelfTimeNs() const {
  LayerTotals totals{};
  const Analysis a = Analyze();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    totals[static_cast<std::size_t>(spans_[i].layer)] += a.self[i];
  }
  return totals;
}

std::vector<double> Tracer::SelfDurationsNs(Layer layer) const {
  const Analysis a = Analyze();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].layer == layer) {
      out.push_back(a.raw_self[i]);
    }
  }
  return out;
}

std::string Tracer::Dump() const {
  std::string out = "{\"layers\":[";
  for (std::size_t l = 0; l < static_cast<std::size_t>(Layer::kCount); ++l) {
    out += l == 0 ? "\"" : ",\"";
    out += LayerName(static_cast<Layer>(l));
    out += '"';
  }
  out += "],\"fields\":[\"layer\",\"parent\",\"run\",\"weight\",\"start_ns\",\"end_ns\"],";
  out += "\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += i == 0 ? "[" : ",[";
    out += std::to_string(static_cast<int>(s.layer)) + ',';
    out += (s.parent == kNoParent ? std::string("-1") : std::to_string(s.parent)) + ',';
    out += std::to_string(s.run) + ',' + std::to_string(s.weight) + ',';
    out += std::to_string(s.start_ns - epoch_ns_) + ',';
    out += std::to_string(s.end_ns - epoch_ns_) + ']';
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
