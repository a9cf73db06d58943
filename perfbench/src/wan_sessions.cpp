// wan-sessions: the distributed world at scale.  A 10 000-node grid of
// 100 Ethernet-100 clusters under the VTHD WAN runs short VIO sessions
// (one 64 B request, one 256 B reply) through padico::scenario.  Session
// opens are an open loop in virtual time: seeded inhomogeneous-Poisson
// arrivals that never wait for earlier sessions.  Each session targets
// a Zipf(0.99)-hot key hashed onto one of the 100 cluster servers, so
// nearly every frame crosses the 8 ms WAN.
#include <memory>

#include "core/rng.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "scenario/arrival.hpp"
#include "scenario/scenario.hpp"
#include "simnet/link_model.hpp"
#include "vlink/link.hpp"

namespace perfbench {

namespace {

namespace pc = padico::core;
namespace sc = padico::scenario;
namespace sn = padico::simnet;

constexpr std::uint32_t kRequestBytes = 64;
constexpr std::uint32_t kReplyBytes = 256;

sc::ScenarioSpec make_spec(const Options& opt) {
  const bool full = opt.scale == Scale::full;
  sc::ScenarioSpec spec;
  spec.name = "wan-sessions";
  spec.seed = opt.seed;
  spec.clusters.assign(full ? 100 : 4,
                       sc::ClusterSpec{full ? 100u : 8u, 1,
                                       sn::profiles::ethernet100()});
  spec.wan = sn::profiles::vthd_wan();
  sc::WorkloadSpec& w = spec.workload;
  w.sessions = full ? 20'000 : 300;
  w.arrival = sc::Arrival::poisson;
  w.rate_per_sec = 100'000.0;
  w.burst_depth = 0.5;
  w.burst_period = pc::milliseconds(10);
  w.flavor = sc::Flavor::vio;
  w.requests_per_session = 1;
  w.request_bytes = kRequestBytes;
  w.reply_bytes = kReplyBytes;
  w.keys = 1024;
  w.key_skew = 0.99;
  return spec;
}

/// Facts about the spec computed once per process, apart from the
/// engine: the instant of the last session open (the arrival process
/// replayed on its own).
struct Shared {
  sc::ScenarioSpec spec;
  pc::SimTime last_arrival = 0;
};

/// The per-session draws a Scenario makes from its spec seed: arrival
/// gaps, client pick, hot key.  Replayed for the selector and sampler
/// per-layer figures and for the step-timed session replay.
struct Draw {
  pc::Duration gap;
  pc::NodeId client;
  pc::NodeId server;
};

std::vector<Draw> replay_draws(const sc::ScenarioSpec& spec,
                               std::uint64_t count, Spans* spans) {
  std::vector<pc::NodeId> servers;
  std::vector<pc::NodeId> clients;
  pc::NodeId next = 0;
  for (const sc::ClusterSpec& c : spec.clusters) {
    for (std::uint32_t j = 0; j < c.nodes; ++j, ++next) {
      (j < c.servers ? servers : clients).push_back(next);
    }
  }
  pc::Rng seeder(spec.seed);
  sc::ArrivalProcess arrivals(spec.workload, seeder.next_u64());
  pc::Rng place(seeder.next_u64());
  sc::ZipfPicker keys(spec.workload.keys, spec.workload.key_skew);
  std::vector<Draw> out(count);
  Span s(spans, Layer::sample);
  for (Draw& d : out) {
    d.gap = arrivals.next_gap();
    d.client = clients[place.uniform_int(0, clients.size() - 1)];
    d.server = servers[keys.pick(place) % servers.size()];
  }
  return out;
}

/// Session replay on a built scenario grid whose servers still listen:
/// the benchmark's own client opens each session at its replayed
/// instant, writes the 64 B request (final flag set) straight through
/// vlink::Link::post_write and waits for the 256 B reply.  With `spans`
/// every step is timed; without, the engine runs untimed.
class SessionReplay {
 public:
  SessionReplay(padico::grid::Grid& grid, Spans* spans,
                const std::vector<Draw>& draws)
      : grid_(grid), spans_(spans), draws_(draws), links_(draws.size()),
        need_(draws.size(), kReplyBytes) {
    request_.assign(kRequestBytes, 0x5a);
    request_[0] = 1;  // final request of the session
  }
  SessionReplay(const SessionReplay&) = delete;
  SessionReplay& operator=(const SessionReplay&) = delete;

  std::uint64_t run() {
    pc::Engine& eng = grid_.engine();
    pc::SimTime t = eng.now();
    for (std::size_t i = 0; i < draws_.size(); ++i) {
      t += draws_[i].gap;
      eng.schedule_at(t, [this, i] { open(i); });
    }
    drive_idle(eng, spans_);
    return completed_;
  }

 private:
  void open(std::size_t i) {
    grid_.node(draws_[i].client)
        .vlink()
        .connect({draws_[i].server, sc::kServerPort},
                 [this, i](pc::Result<std::unique_ptr<padico::vlink::Link>> r) {
                   if (!r.ok()) return;
                   links_[i] = std::move(*r);
                   links_[i]->set_ready_handler([this, i] { on_ready(i); });
                   Span s(spans_, Layer::vlink_write);
                   links_[i]->post_write(pc::view_of(request_));
                 });
  }

  void on_ready(std::size_t i) {
    const pc::Bytes got = links_[i]->read_available();
    if (got.size() > need_[i]) return;
    need_[i] -= static_cast<std::uint32_t>(got.size());
    if (need_[i] != 0) return;
    ++completed_;
    // Destroy the link from a fresh event, outside its own delivery.
    grid_.engine().post([this, i] { links_[i].reset(); });
  }

  padico::grid::Grid& grid_;
  Spans* spans_;
  const std::vector<Draw>& draws_;
  std::vector<std::unique_ptr<padico::vlink::Link>> links_;
  std::vector<std::uint32_t> need_;
  pc::Bytes request_;
  std::uint64_t completed_ = 0;
};

class SessionsRound final : public Round {
 public:
  explicit SessionsRound(const Shared& shared)
      : shared_(shared),
        scenario_(std::make_unique<sc::Scenario>(shared_.spec)) {}

  // Scenario::run drives its own engine, so the traced round is timed
  // like an untraced one: its per-step figures and the tracing overhead
  // come from the session replays in layer_metrics().
  std::uint64_t run(Spans* /*spans*/) override {
    pc::Engine& eng = scenario_->grid().engine();
    const Tally before = Tally::of(eng);
    report_ = scenario_->run();
    delta_ = Tally::of(eng) - before;
    return report_.closed;
  }

  std::uint64_t attempted() const override {
    return shared_.spec.workload.sessions;
  }

  void check(Checks& c) override {
    const sc::Report& r = report_;
    const std::uint64_t n = shared_.spec.workload.sessions;
    c.expect(r.opened == r.closed + r.failed,
             "wan-sessions: opened != closed + failed");
    c.expect(r.failed == 0, "wan-sessions: failed sessions");
    c.expect(r.closed == n, "wan-sessions: closed != spec session count");
    c.expect(r.payload_tx_bytes == n * kRequestBytes,
             "wan-sessions: request payload bytes != sessions x 64");
    c.expect(r.payload_rx_bytes == n * kReplyBytes,
             "wan-sessions: reply payload bytes != sessions x 256");
    c.expect(delta_.get("vlink.tx.frames") == delta_.get("vlink.rx.frames") &&
                 delta_.get("vlink.tx.frames") > 0,
             "wan-sessions: vlink tx frames != rx frames on a lossless run");
    // Sessions opened in the last WAN round trip cross the WAN with
    // probability 0.99 each and need two WAN round trips (connect,
    // then request/reply), so the run outlasts the last open by at
    // least one WAN round trip.
    c.expect(r.duration >= shared_.last_arrival + 2 * shared_.spec.wan.latency,
             "wan-sessions: simulated duration shorter than last arrival "
             "plus one WAN round trip");
  }

  std::string digest() const override { return report_.digest; }

  std::vector<std::string> corruptions() const override {
    return {"missing session", "lost reply byte", "digest drift"};
  }

  void corrupt(std::size_t which) override {
    if (which == 0) --report_.closed;
    if (which == 1) --report_.payload_rx_bytes;
    if (which == 2) report_.digest[0] = report_.digest[0] == '0' ? '1' : '0';
  }

  void layer_metrics(Spans& spans, std::vector<Metric>& out) override {
    const sc::ScenarioSpec& spec = shared_.spec;
    padico::grid::Grid& grid = scenario_->grid();
    const std::uint64_t n = spec.workload.sessions;

    // Replayed samplers and selector decisions over the run's draws.
    const std::vector<Draw> draws = replay_draws(spec, n, &spans);
    out.push_back({"scenario.sample_ns_per_session",
                   per(spans.total_ns(Layer::sample), static_cast<double>(n)),
                   "ns"});
    std::vector<std::pair<pc::NodeId, pc::NodeId>> pairs;
    pairs.reserve(draws.size());
    for (const Draw& d : draws) pairs.emplace_back(d.client, d.server);
    selector_replay(spans, grid, pairs, out);

    // The first quarter of the sessions replayed on the same grid and
    // servers, untimed and then step-timed; the host rates of the two
    // give the tracing overhead.
    const std::vector<Draw> replay(
        draws.begin(),
        draws.begin() + static_cast<std::ptrdiff_t>(std::min<std::uint64_t>(
                            n, spec.workload.sessions / 4 + 1)));
    std::uint64_t t0 = now_ns();
    SessionReplay plain(grid, nullptr, replay);
    const std::uint64_t plain_done = plain.run();
    const double plain_ns = static_cast<double>(now_ns() - t0);
    t0 = now_ns();
    SessionReplay timed(grid, &spans, replay);
    const std::uint64_t replayed = timed.run();
    const double timed_ns = static_cast<double>(now_ns() - t0);
    out.push_back({"trace.ops_per_s_ratio",
                   replayed == replay.size() && plain_done == replay.size()
                       ? plain_ns / timed_ns
                       : 0.0,
                   "ratio"});
    out.push_back({"vlink.write_ns_per_msg",
                   replayed == replay.size()
                       ? per(spans.total_ns(Layer::vlink_write),
                             static_cast<double>(spans.count(Layer::vlink_write)))
                       : 0.0,
                   "ns"});
    tally_metrics(delta_, report_.closed, spans, out);
    queue_replay(spans, delay_mix(grid, delta_), spans.mean_queued(),
                 spec.seed, out);

    std::vector<pc::Bytes> payloads;
    for (int i = 0; i < 512; ++i) {
      payloads.emplace_back(kRequestBytes, 0x5a);
      payloads.emplace_back(kReplyBytes, 0xa5);
    }
    lz_replay(spans, payloads, out);

    grid_replay(
        spans,
        [&spec](padico::grid::Grid& g) {
          std::size_t total = 0;
          for (const sc::ClusterSpec& c : spec.clusters) total += c.nodes;
          g.add_nodes(total);
          const sn::NetId wan = g.add_network(spec.wan);
          pc::NodeId next = 0;
          for (const sc::ClusterSpec& c : spec.clusters) {
            const sn::NetId net = g.add_network(c.profile);
            for (std::uint32_t j = 0; j < c.nodes; ++j, ++next) {
              g.attach(net, next);
              g.attach(wan, next);
            }
          }
        },
        padico::grid::BuildOptions{}, out);
  }

 private:
  const Shared& shared_;
  std::unique_ptr<sc::Scenario> scenario_;
  sc::Report report_;
  Tally delta_;
};

}  // namespace

Workload wan_sessions(const Options& opt) {
  auto shared = std::make_shared<Shared>();
  shared->spec = make_spec(opt);
  shared->spec.validate();
  {
    pc::Rng seeder(shared->spec.seed);
    sc::ArrivalProcess arrivals(shared->spec.workload, seeder.next_u64());
    for (std::uint64_t i = 0; i < shared->spec.workload.sessions; ++i) {
      shared->last_arrival += arrivals.next_gap();
    }
  }
  return {"wan-sessions", [shared]() -> std::unique_ptr<Round> {
            return std::make_unique<SessionsRound>(*shared);
          }};
}

}  // namespace perfbench
