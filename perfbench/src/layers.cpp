#include "layers.hpp"

#include <set>

#include "compress/lz.hpp"
#include "core/event_queue.hpp"
#include "core/rng.hpp"
#include "selector/selector.hpp"

namespace perfbench {

namespace pc = padico::core;

const std::vector<std::pair<std::string, std::string>>& layer_metric_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"core.events_per_op", "count"},
      {"core.ns_per_event", "ns"},
      {"core.step_ns.p50", "ns"},
      {"core.step_ns.p99", "ns"},
      {"core.step_ns.samples", "count"},
      {"core.queue.overflow_share", "ratio"},
      {"core.queue.push_pop_ns", "ns"},
      {"core.bytes_pool.misses_per_op", "count"},
      {"grid.build_ns_per_node", "ns"},
      {"grid.teardown_ns_per_node", "ns"},
      {"simnet.msgs_per_op", "count"},
      {"simnet.wire_bytes_per_op", "B"},
      {"vlink.frames_per_op", "count"},
      {"vlink.write_ns_per_msg", "ns"},
      {"vlink.pstream.chunks_per_mb", "count/MB"},
      {"selector.decide_ns", "ns"},
      {"selector.cache_hit_ratio", "ratio"},
      {"scenario.sample_ns_per_session", "ns"},
      {"net.arb.pump_turns_per_op", "count"},
      {"net.arb.switches_per_op", "count"},
      {"net.madio.sends_per_op", "count"},
      {"net.madio.combined_ratio", "ratio"},
      {"circuit.sends_per_op", "count"},
      {"middleware.call_ns_per_msg", "ns"},
      {"adapters.vrp.retx_per_mb", "count/MB"},
      {"adapters.vrp.realized_loss", "ratio"},
      {"adapters.adoc.wire_per_raw", "ratio"},
      {"compress.lz.encode_ns_per_kb", "ns/KB"},
      {"compress.lz.decode_ns_per_kb", "ns/KB"},
      {"trace.ops_per_s_ratio", "ratio"},
  };
  return names;
}

Tally Tally::of(pc::Engine& engine) {
  Tally t;
  t.events = engine.processed();
  t.pool_misses = engine.bytes_pool().misses();
  for (const auto& [name, c] : engine.obs().counters()) {
    t.counters.emplace(name, c.value());
  }
  return t;
}

Tally Tally::operator-(const Tally& before) const {
  Tally d;
  d.events = events - before.events;
  d.pool_misses = pool_misses - before.pool_misses;
  for (const auto& [name, v] : counters) {
    d.counters.emplace(name, v - before.get(name));
  }
  return d;
}

Tally& Tally::operator+=(const Tally& other) {
  events += other.events;
  pool_misses += other.pool_misses;
  for (const auto& [name, v] : other.counters) counters[name] += v;
  return *this;
}

std::uint64_t Tally::get(std::string_view name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

std::uint64_t Tally::sum(std::string_view prefix,
                         std::string_view suffix) const {
  std::uint64_t s = 0;
  for (const auto& [name, v] : counters) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      s += v;
    }
  }
  return s;
}

void tally_metrics(const Tally& d, std::uint64_t ops, const Spans& spans,
                   std::vector<Metric>& out) {
  const double n = static_cast<double>(ops);
  auto f = [](std::uint64_t v) { return static_cast<double>(v); };
  const std::vector<std::uint32_t> steps = spans.sorted(Layer::step);
  out.push_back({"core.events_per_op", per(f(d.events), n), "count"});
  if (!steps.empty()) {
    out.push_back({"core.ns_per_event",
                   per(spans.total_ns(Layer::step), f(steps.size())), "ns"});
  }
  out.push_back({"core.step_ns.p50", percentile(steps, 50), "ns"});
  out.push_back({"core.step_ns.p99", percentile(steps, 99), "ns"});
  out.push_back({"core.step_ns.samples", f(steps.size()), "count"});
  out.push_back({"core.queue.overflow_share", spans.overflow_share(), "ratio"});
  out.push_back(
      {"core.bytes_pool.misses_per_op", per(f(d.pool_misses), n), "count"});
  out.push_back(
      {"simnet.msgs_per_op", per(f(d.sum("net.", ".msgs")), n), "count"});
  out.push_back(
      {"simnet.wire_bytes_per_op", per(f(d.sum("net.", ".bytes")), n), "B"});
  out.push_back(
      {"vlink.frames_per_op", per(f(d.get("vlink.tx.frames")), n), "count"});
  const std::uint64_t hits = d.get("selector.cache.hits");
  out.push_back({"selector.cache_hit_ratio",
                 per(f(hits), f(hits + d.get("selector.cache.misses"))),
                 "ratio"});
  out.push_back(
      {"net.arb.pump_turns_per_op", per(f(d.get("arb.pump_turns")), n),
       "count"});
  out.push_back(
      {"net.arb.switches_per_op", per(f(d.get("arb.switches")), n), "count"});
  out.push_back(
      {"net.madio.sends_per_op", per(f(d.get("madio.sends")), n), "count"});
  out.push_back({"net.madio.combined_ratio",
                 per(f(d.get("madio.hdr.combined")), f(d.get("madio.sends"))),
                 "ratio"});
  out.push_back(
      {"circuit.sends_per_op", per(f(d.get("circuit.sends")), n), "count"});
  out.push_back({"adapters.adoc.wire_per_raw",
                 per(f(d.get("adoc.wire_bytes")), f(d.get("adoc.raw_bytes"))),
                 "ratio"});
}

void grid_replay(Spans& spans,
                 const std::function<void(padico::grid::Grid&)>& declare,
                 const padico::grid::BuildOptions& opts,
                 std::vector<Metric>& out) {
  auto grid = std::make_unique<padico::grid::Grid>();
  std::size_t nodes = 0;
  {
    Span s(&spans, Layer::grid_build);
    declare(*grid);
    grid->build(opts);
    nodes = grid->size();
  }
  {
    Span s(&spans, Layer::grid_teardown);
    grid.reset();
  }
  const double n = static_cast<double>(nodes);
  out.push_back(
      {"grid.build_ns_per_node", per(spans.total_ns(Layer::grid_build), n),
       "ns"});
  out.push_back({"grid.teardown_ns_per_node",
                 per(spans.total_ns(Layer::grid_teardown), n), "ns"});
}

std::vector<std::pair<std::uint64_t, double>> delay_mix(
    padico::grid::Grid& grid, const Tally& d) {
  std::vector<std::pair<std::uint64_t, double>> mix;
  std::set<std::string> seen;
  std::uint64_t deliveries = 0;
  padico::simnet::Fabric& fab = grid.fabric();
  for (std::size_t i = 0; i < fab.network_count(); ++i) {
    const auto& model = fab.network(static_cast<padico::simnet::NetId>(i)).model();
    if (!seen.insert(model.name).second) continue;
    const std::uint64_t msgs = d.get("net." + model.name + ".msgs");
    deliveries += msgs;
    if (msgs > 0) {
      mix.emplace_back(model.latency, static_cast<double>(msgs));
    }
  }
  if (d.events > deliveries) {
    mix.emplace_back(0, static_cast<double>(d.events - deliveries));
  }
  return mix;
}

void queue_replay(Spans& spans,
                  const std::vector<std::pair<std::uint64_t, double>>& mix,
                  std::size_t depth, std::uint64_t seed,
                  std::vector<Metric>& out) {
  constexpr std::size_t kOps = 400'000;
  double total_w = 0;
  for (const auto& [delay, w] : mix) total_w += w;
  pc::Rng rng(seed);
  std::vector<std::uint64_t> delays(kOps + depth);
  for (std::uint64_t& dly : delays) {
    double u = rng.uniform() * total_w;
    dly = mix.empty() ? 0 : mix.back().first;
    for (const auto& [delay, w] : mix) {
      if (u < w) {
        dly = delay;
        break;
      }
      u -= w;
    }
  }
  pc::EventQueue q{pc::QueueConfig{}};
  std::uint64_t seq = 0;
  pc::SimTime now = 0;
  std::size_t next = 0;
  for (; next < depth; ++next) q.push(now + delays[next], seq++, [] {});
  pc::EventFn fn;
  {
    Span s(&spans, Layer::queue);
    for (std::size_t i = 0; i < kOps; ++i, ++next) {
      q.push(now + delays[next], seq++, [] {});
      q.pop(now, fn);
    }
  }
  out.push_back({"core.queue.push_pop_ns",
                 per(spans.total_ns(Layer::queue), static_cast<double>(kOps)),
                 "ns"});
}

void lz_replay(Spans& spans, const std::vector<pc::Bytes>& inputs,
               std::vector<Metric>& out) {
  std::vector<pc::Bytes> encoded;
  encoded.reserve(inputs.size());
  std::size_t raw = 0;
  for (const pc::Bytes& in : inputs) {
    raw += in.size();
    Span s(&spans, Layer::lz_encode);
    encoded.push_back(padico::compress::lz_encode(pc::view_of(in)));
  }
  std::size_t decoded = 0;
  for (const pc::Bytes& enc : encoded) {
    Span s(&spans, Layer::lz_decode);
    auto dec = padico::compress::lz_decode(pc::view_of(enc));
    if (dec) decoded += dec->size();
  }
  const double kb = static_cast<double>(raw) / 1024.0;
  out.push_back({"compress.lz.encode_ns_per_kb",
                 per(spans.total_ns(Layer::lz_encode), kb), "ns/KB"});
  out.push_back({"compress.lz.decode_ns_per_kb",
                 decoded == raw ? per(spans.total_ns(Layer::lz_decode), kb)
                                : 0.0,
                 "ns/KB"});
}

void selector_replay(
    Spans& spans, padico::grid::Grid& grid,
    const std::vector<std::pair<pc::NodeId, pc::NodeId>>& pairs,
    std::vector<Metric>& out) {
  // Start from empty decision caches so the replay meets the same
  // misses and hits the run did.
  std::set<pc::NodeId> sources;
  for (const auto& [src, dst] : pairs) sources.insert(src);
  for (pc::NodeId src : sources) grid.node(src).chooser().invalidate();
  std::size_t resolved = 0;
  {
    Span s(&spans, Layer::decide);
    for (const auto& [src, dst] : pairs) {
      if (grid.node(src).chooser().select(dst, nullptr) != nullptr) ++resolved;
    }
  }
  out.push_back({"selector.decide_ns",
                 resolved == pairs.size()
                     ? per(spans.total_ns(Layer::decide),
                           static_cast<double>(pairs.size()))
                     : 0.0,
                 "ns"});
}

}  // namespace perfbench
