// Per-layer measurement helpers for the traced run: counter deltas
// read from an engine's public obs::Registry and accessors, and small
// replays that time one layer's public functions on the workload's own
// inputs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/bytes.hpp"
#include "core/engine.hpp"
#include "grid/grid.hpp"
#include "harness.hpp"

namespace perfbench {

/// Every per-layer metric, with its unit, in output order.  A traced
/// run prints each of them; a layer a workload bypasses reads 0.
const std::vector<std::pair<std::string, std::string>>& layer_metric_names();

/// Engine-wide counts at one instant.
struct Tally {
  std::uint64_t events = 0;
  std::uint64_t pool_misses = 0;
  std::map<std::string, std::uint64_t, std::less<>> counters;

  static Tally of(padico::core::Engine& engine);
  Tally operator-(const Tally& before) const;
  Tally& operator+=(const Tally& other);
  std::uint64_t get(std::string_view name) const;
  /// Sum of the counters named prefix*suffix.
  std::uint64_t sum(std::string_view prefix, std::string_view suffix) const;
};

inline double per(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Counter-derived metrics common to every workload, per completed
/// operation, plus the Engine::step figures from `spans`.
void tally_metrics(const Tally& d, std::uint64_t ops, const Spans& spans,
                   std::vector<Metric>& out);

/// Declare a grid like `declare` does, build it with `opts`, destroy
/// it; spans grid_build / grid_teardown.
void grid_replay(Spans& spans,
                        const std::function<void(padico::grid::Grid&)>& declare,
                        const padico::grid::BuildOptions& opts,
                        std::vector<Metric>& out);

/// EventQueue push+pop replay: `n` events whose delays are drawn from
/// `mix` (delay ns, weight) with `depth` events kept queued.
void queue_replay(Spans& spans,
                  const std::vector<std::pair<std::uint64_t, double>>& mix,
                  std::size_t depth, std::uint64_t seed,
                  std::vector<Metric>& out);

/// The delay mix of an engine's run: zero-delay events plus one
/// delivery per simnet message at each network's latency.
std::vector<std::pair<std::uint64_t, double>> delay_mix(
    padico::grid::Grid& grid, const Tally& d);

/// compress::lz_encode / lz_decode over `inputs`, ns per KB of raw.
void lz_replay(Spans& spans, const std::vector<padico::core::Bytes>& inputs,
               std::vector<Metric>& out);

/// Chooser::select of `src` for `dst`, for every pair in `pairs`.
void selector_replay(
    Spans& spans, padico::grid::Grid& grid,
    const std::vector<std::pair<padico::core::NodeId, padico::core::NodeId>>&
        pairs,
    std::vector<Metric>& out);

}  // namespace perfbench
