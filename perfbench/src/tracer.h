// Host-time spans recorded around the benchmark's calls into each simulator
// layer. Spans are kept in memory and written once, when the run ends; the
// per-layer table is computed from them as self time (a span's duration minus
// the part its child spans cover).
//
// Per-access spans may be sampled: a workload opens one for every n-th access
// and gives it weight n, so the layer totals are scaled back up to the full
// access count. Every other span has weight 1.

#ifndef PERFBENCH_SRC_TRACER_H_
#define PERFBENCH_SRC_TRACER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Nanoseconds on the host's steady clock.
std::uint64_t HostNowNs();

enum class Layer : std::uint8_t {
  kRound,        // the measured phase of one round (root span)
  kBoot,         // construct + boot, before the measured phase
  kRunFor,       // Scenario::RunFor; its self time is daemon-loop overhead
  kWake,         // one fusion wake, kQuantumStart..kQuantumEnd of the phase hook
  kAccess,       // a sampled Read64/Write64 that did not fault
  kFaultAccess,  // a sampled Read64/Write64 that took at least one fault
  kQuantum,      // one Fleet::RunFor quantum, barrier to barrier
  kGenerate,     // a sampled draw of the benchmark's own access generator
  kSave,         // snapshot::SaveSnapshot
  kRestore,      // snapshot::RestoreSnapshot
  kCount,
};

const char* LayerName(Layer layer);

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = UINT32_MAX;

  struct Span {
    Layer layer = Layer::kRound;
    std::uint32_t parent = kNoParent;
    std::uint32_t run = 0;     // round index the span belongs to
    std::uint32_t weight = 1;  // how many events this (sampled) span stands for
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  Tracer();

  // Opens a span as a child of the innermost open span; returns its id.
  std::uint32_t Begin(Layer layer, std::uint32_t weight = 1);
  // Closes the innermost open span, which must be `id`. `layer` may reclassify
  // it (an access is only known to have faulted once it returned).
  void End(std::uint32_t id, Layer layer);
  void End(std::uint32_t id) { End(id, spans_[id].layer); }

  // Starts a new round: spans of earlier rounds are dropped, so memory holds
  // one round and Dump() writes the last one.
  void StartRun(std::uint32_t run) {
    spans_.clear();
    run_ = run;
  }

  // Self time by layer, in ns, of the spans held (one round). Index with
  // Layer. The root's self time is what no layer span covers.
  using LayerTotals = std::array<double, static_cast<std::size_t>(Layer::kCount)>;
  [[nodiscard]] LayerTotals SelfTimeNs() const;

  // Unscaled self times (ns) of the spans of `layer`, for percentiles: a wake
  // nested inside a sampled access is not part of the access.
  [[nodiscard]] std::vector<double> SelfDurationsNs(Layer layer) const;

  // {"layers":[...], "spans":[[layer, parent, run, weight, start, end], ...]}
  // with times relative to the tracer's creation.
  [[nodiscard]] std::string Dump() const;

 private:
  struct Analysis {
    std::vector<double> raw_self;  // duration minus what the children cover
    std::vector<double> self;      // attributed self time, sampling scaled out
  };

  // A span's duration less the calibrated cost of reading the clock.
  [[nodiscard]] double Duration(const Span& s) const;
  [[nodiscard]] Analysis Analyze() const;

  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::uint32_t run_ = 0;
  std::uint64_t epoch_ns_ = 0;
  double clock_cost_ns_ = 0.0;
};

// RAII span for the non-access layers.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->Begin(layer) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACER_H_
