// perfbench harness: host-time clock, in-memory spans for the traced
// run, the round loop that produces the end-to-end metrics, and the
// result record every workload fills.
//
// Timing rules (see README.md):
//   * end-to-end metrics come only from untraced rounds;
//   * per-layer metrics come only from the traced run, whose spans sit
//     around the benchmark's own calls into each layer's public API;
//   * every simulated (virtual-time) figure is a correctness check,
//     never a score.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/bytes.hpp"
#include "core/engine.hpp"
#include "core/rng.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Workload size: `full` is what a scored run measures; `small` is the
/// sanitizer pass and the check self-test.
enum class Scale { full, small };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::full;
};

/// The layers a span can be charged to.  Each is one of the repo's
/// modules; the benchmark's call into that module's public API is the
/// span boundary.
enum class Layer : std::uint8_t {
  step,          // core: Engine::step
  queue,         // core: EventQueue push+pop replay
  grid_build,    // grid: declaration + Grid::build
  grid_teardown, // grid: ~Grid
  sample,        // scenario: ArrivalProcess / ZipfPicker / Rng replay
  decide,        // selector: Chooser::select replay
  vlink_write,   // vlink: Link::post_write
  middleware,    // personalities: send / recv / invoke calls
  lz_encode,     // compress: lz_encode
  lz_decode,     // compress: lz_decode
};

/// Spans of the traced run, kept in memory and aggregated at the end.
class Spans {
 public:
  struct Rec {
    Layer layer;
    std::uint32_t ns;  // saturates at ~4.29 s
  };

  Spans() { recs_.reserve(1u << 20); }

  void add(Layer l, std::uint64_t ns) {
    recs_.push_back({l, static_cast<std::uint32_t>(
                            std::min<std::uint64_t>(ns, 0xffffffffu))});
  }

  /// Engine queue shape, sampled after every timed step.
  void sample_queue(const padico::core::EventQueue& q) {
    ++queue_samples_;
    queued_ += q.size();
    overflow_ += q.overflow_size();
  }
  std::size_t mean_queued() const {
    return queue_samples_ == 0
               ? 0
               : static_cast<std::size_t>(queued_ / queue_samples_);
  }
  double overflow_share() const {
    return queued_ == 0 ? 0.0
                        : static_cast<double>(overflow_) /
                              static_cast<double>(queued_);
  }

  double total_ns(Layer l) const;
  std::uint64_t count(Layer l) const;
  /// Durations of one layer's spans, sorted.
  std::vector<std::uint32_t> sorted(Layer l) const;

 private:
  std::vector<Rec> recs_;
  std::uint64_t queue_samples_ = 0;
  std::uint64_t queued_ = 0;
  std::uint64_t overflow_ = 0;
};

/// RAII span: charges its lifetime to `layer` when tracing, nothing
/// otherwise.
class Span {
 public:
  Span(Spans* spans, Layer layer)
      : spans_(spans), layer_(layer), t0_(spans ? now_ns() : 0) {}
  ~Span() {
    if (spans_ != nullptr) spans_->add(layer_, now_ns() - t0_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Spans* spans_;
  Layer layer_;
  std::uint64_t t0_;
};

/// Run `engine` until `done()` or until it drains.  Traced, every
/// Engine::step is timed and the queue shape sampled after it.
template <typename Done>
void drive(padico::core::Engine& engine, Spans* spans, Done&& done) {
  if (spans == nullptr) {
    engine.run_while_pending(done);
    return;
  }
  while (engine.pending() && !done()) {
    const std::uint64_t t0 = now_ns();
    engine.step();
    spans->add(Layer::step, now_ns() - t0);
    spans->sample_queue(engine.queue());
  }
}

inline void drive_idle(padico::core::Engine& engine, Spans* spans) {
  drive(engine, spans, [] { return false; });
}

/// Correctness findings of one run; any entry fails the run.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok) errors_.push_back(what);
  }
  bool ok() const noexcept { return errors_.empty(); }
  const std::vector<std::string>& errors() const noexcept { return errors_; }

 private:
  std::vector<std::string> errors_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// One round of a workload: constructing it is the set-up, run() is
/// the timed phase, check() reads the outputs, destruction is the
/// teardown.  Every round of a run performs the same operations.
class Round {
 public:
  virtual ~Round() = default;
  /// Issue and complete the round's operations; returns how many
  /// completed.  `spans` is null on untraced rounds.
  virtual std::uint64_t run(Spans* spans) = 0;
  /// Operations the round attempts (fixed per workload and scale).
  virtual std::uint64_t attempted() const = 0;
  /// Check the outputs against computations made apart from the
  /// program.
  virtual void check(Checks& checks) = 0;
  /// The round's simulated-output digest, if it has one; every round of
  /// one seed must give the same.
  virtual std::string digest() const { return {}; }
  /// Traced run only: per-layer metrics read from the round's live
  /// objects after run() (counters, accessors, replays).
  virtual void layer_metrics(Spans& spans, std::vector<Metric>& out) = 0;
  /// Check self-test: named ways to corrupt this round's outputs after
  /// run(); check() must fail after any one of them.
  virtual std::vector<std::string> corruptions() const = 0;
  virtual void corrupt(std::size_t which) = 0;
};

using RoundFactory = std::function<std::unique_ptr<Round>()>;

struct Workload {
  std::string name;
  RoundFactory make;
};

Workload wan_sessions(const Options& opt);
Workload san_rpc(const Options& opt);
Workload wan_bulk(const Options& opt);

/// Result of one benchmark run, printed as the last stdout line.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  Checks checks;
};

/// Untraced: whole rounds until `opt.seconds` of host time have passed
/// (at least three), reporting medians over the rounds.  Traced: an
/// untraced round (the overhead reference) and one traced round.  Each
/// round runs in a fresh child process of its own.
Result run_workload(const Workload& w, const Options& opt);

/// `n` bytes of a seeded splitmix64 stream.
padico::core::Bytes random_bytes(padico::core::Rng& rng, std::size_t n);

double median(std::vector<double> v);
/// Keeps the first digest of a run in `first` and fails `c` when `got`
/// differs from it.
void same_digest(Checks& c, const std::string& workload, std::string& first,
                 const std::string& got);
double percentile(const std::vector<std::uint32_t>& sorted, double p);
double peak_rss_mb();

}  // namespace perfbench
