// san-rpc: the parallel world.  One Myrinet-2000 + Ethernet-100
// cluster whose nodes each host MPI (over one circuit spanning the
// cluster), omniORB-4 (zero-copy CDR), Mico (copying CDR) and Java
// sockets at once.  Nodes pair up (even client, odd server); every pair
// runs, on long-lived connections opened during set-up, a closed-loop
// small-message ping-pong in each personality beside one 1 MiB stream
// per personality.  Before that contended phase, pair 0 measures each
// personality's uncontended one-way latency against the paper's
// Table 1.
#include <array>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>

#include "core/rng.hpp"
#include "core/task.hpp"
#include "grid/grid.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "madeleine/circuit.hpp"
#include "middleware/corba/orb.hpp"
#include "middleware/javasock/jsock.hpp"
#include "middleware/mpi/mpi.hpp"
#include "simnet/link_model.hpp"

namespace perfbench {

namespace {

namespace pc = padico::core;
namespace gr = padico::grid;
namespace sn = padico::simnet;
namespace orb = padico::orb;
namespace mpi = padico::mpi;
namespace js = padico::jsock;

constexpr std::size_t kPingBytes = 64;
constexpr std::size_t kStreamBytes = 1 << 20;
constexpr std::size_t kPool = 64;
constexpr int kProbeRounds = 8;
constexpr padico::net::Tag kMpiTag = 0x52;
constexpr pc::Port kMpiPort = 5100;
constexpr pc::Port kOmniPort = 6100;
constexpr pc::Port kMicoPort = 6200;
constexpr pc::Port kJavaPort = 6300;
constexpr int kPingTag = 1;
constexpr int kStreamTag = 2;
constexpr int kProbeTag = 3;

enum Kind : int { kMpi = 0, kOmni = 1, kMico = 2, kJava = 3, kKinds = 4 };
constexpr std::array<const char*, kKinds> kKindName = {"MPICH", "omniORB-4",
                                                       "Mico", "Java-socket"};
// Uncontended one-way latency (us): the paper's Table 1 (MPICH,
// omniORB-4, Java) and its section 5 text (Mico).
constexpr std::array<double, kKinds> kPaperLatencyUs = {12.06, 18.4, 63.0,
                                                        40.0};

/// Seeded inputs, made once per process.
struct Inputs {
  int pairs = 0;
  int pings = 0;  // ping-pong round trips per pair and personality
  std::vector<pc::Bytes> ping, pong;
  std::array<pc::Bytes, kKinds> stream;
};

/// The cluster: every node on one Myrinet-2000 SAN and one Ethernet-100.
void declare_cluster(gr::Grid& g, int nodes) {
  g.add_nodes(static_cast<std::size_t>(nodes));
  const sn::NetId san = g.add_network(sn::profiles::myrinet2000());
  const sn::NetId lan = g.add_network(sn::profiles::ethernet100());
  for (int n = 0; n < nodes; ++n) {
    g.attach(san, static_cast<pc::NodeId>(n));
    g.attach(lan, static_cast<pc::NodeId>(n));
  }
}

class RpcRound final : public Round {
 public:
  explicit RpcRound(const Inputs& in) : in_(in) {
    const int nodes = 2 * in_.pairs;
    grid_ = std::make_unique<gr::Grid>();
    declare_cluster(*grid_, nodes);
    grid_->build();
    pc::Engine& eng = grid_->engine();

    std::vector<pc::NodeId> members(static_cast<std::size_t>(nodes));
    std::iota(members.begin(), members.end(), pc::NodeId{0});
    world_ = std::make_unique<gr::CircuitSet>(grid_->make_circuit(
        "world", padico::circuit::Group(members), kMpiTag, kMpiPort));
    drive(eng, nullptr, [this] { return world_->established(); });

    for (int n = 0; n < nodes; ++n) {
      gr::Node& node = grid_->node(static_cast<std::size_t>(n));
      const auto id = static_cast<pc::NodeId>(n);
      comm_.push_back(std::make_unique<mpi::Comm>(world_->at(n)));
      comm_.back()->attach(*grid_, id);
      jvm_.push_back(std::make_unique<js::Jvm>(eng));
      jvm_.back()->attach(*grid_, id);
      omni_.push_back(std::make_unique<orb::Orb>(
          node.host(), node.vlink(), orb::profiles::omniorb4(), kOmniPort));
      omni_.back()->attach(*grid_, id);
      mico_.push_back(std::make_unique<orb::Orb>(
          node.host(), node.vlink(), orb::profiles::mico(), kMicoPort));
      mico_.back()->attach(*grid_, id);
      if (n % 2 == 1) {
        serve(*omni_.back(), kOmni, n / 2);
        serve(*mico_.back(), kMico, n / 2);
        js::java_server_socket(
            node.vlink(), kJavaPort,
            [this, n](std::shared_ptr<js::JavaSocket> s) {
              jserver_[static_cast<std::size_t>(n / 2)] = std::move(s);
            },
            jvm_.back().get());
      }
    }
    jclient_.resize(static_cast<std::size_t>(in_.pairs));
    jserver_.resize(static_cast<std::size_t>(in_.pairs));
    stream_sent_.resize(static_cast<std::size_t>(in_.pairs));
    for (int p = 0; p < in_.pairs; ++p) tasks_.push_back(open_pair(p));
    drive(eng, nullptr, [this] { return opened_ == in_.pairs; });
  }

  std::uint64_t run(Spans* spans) override {
    spans_ = spans;
    pc::Engine& eng = grid_->engine();
    const Tally before = Tally::of(eng);
    // Uncontended latency probes on pair 0, one personality at a time.
    for (int k = 0; k < kKinds; ++k) {
      probe_done_ = false;
      tasks_.push_back(probe(static_cast<Kind>(k)));
      if (k == kMpi || k == kJava) {
        tasks_.push_back(probe_echo(static_cast<Kind>(k)));
      }
      drive(eng, spans, [this] { return probe_done_; });
    }
    // Contended phase: every pair, every personality at once.
    for (int p = 0; p < in_.pairs; ++p) {
      tasks_.push_back(mpi_client(p));
      tasks_.push_back(mpi_server(p));
      tasks_.push_back(mpi_stream(p));
      tasks_.push_back(orb_client(p, kOmni));
      tasks_.push_back(orb_stream(p, kOmni));
      tasks_.push_back(orb_client(p, kMico));
      tasks_.push_back(orb_stream(p, kMico));
      tasks_.push_back(java_client(p));
      tasks_.push_back(java_server(p));
    }
    const int finishers = in_.pairs * 8;
    drive(eng, spans, [this, finishers] { return finished_ == finishers; });
    drive_idle(eng, spans);
    delta_ = Tally::of(eng) - before;
    return delivered_;
  }

  std::uint64_t attempted() const override {
    const std::uint64_t per_pair =
        2ull * static_cast<std::uint64_t>(in_.pings) * kKinds  // ping-pongs
        + 1 + 2 + 2 + 1;  // streams: MPI, omniORB and Mico invoke+reply, Java
    return 2ull * kProbeRounds * kKinds +
           per_pair * static_cast<std::uint64_t>(in_.pairs);
  }

  void check(Checks& c) override {
    c.expect(corrupt_ == 0,
             "san-rpc: a delivered message differs from the payload sent");
    c.expect(delivered_ == attempted(), "san-rpc: messages missing");
    for (int k = 0; k < kKinds; ++k) {
      const double err = std::fabs(latency_us_[k] / kPaperLatencyUs[k] - 1.0);
      c.expect(err <= 0.03, std::string("san-rpc: ") + kKindName[k] +
                                " uncontended latency " +
                                std::to_string(latency_us_[k]) +
                                " us is not within 3% of the paper's " +
                                std::to_string(kPaperLatencyUs[k]));
    }
    c.expect(max_stream_rate_ > 0 &&
                 max_stream_rate_ <= static_cast<double>(
                                         sn::profiles::myrinet2000().bytes_per_second),
             "san-rpc: a simulated stream exceeds the Myrinet-2000 link rate");
  }

  std::vector<std::string> corruptions() const override {
    return {"flipped payload byte", "missing message",
            "latency off Table 1", "stream above link rate"};
  }

  void corrupt(std::size_t which) override {
    if (which == 0) {
      pc::Bytes flipped = ping(0, 0);
      flipped[kPingBytes / 2] ^= 0x01;
      --delivered_;  // the flipped copy replaces one delivered message
      verify(pc::view_of(flipped), ping(0, 0));
    }
    if (which == 1) --delivered_;
    if (which == 2) latency_us_[kOmni] *= 1.04;
    if (which == 3) stream_rate(0, pc::microseconds(100));
  }

  void layer_metrics(Spans& spans, std::vector<Metric>& out) override {
    tally_metrics(delta_, delivered_, spans, out);
    out.push_back({"middleware.call_ns_per_msg",
                   per(spans.total_ns(Layer::middleware),
                       static_cast<double>(spans.count(Layer::middleware))),
                   "ns"});
    queue_replay(spans, delay_mix(*grid_, delta_), spans.mean_queued(), 1,
                 out);
    std::vector<std::pair<pc::NodeId, pc::NodeId>> pairs;
    for (int p = 0; p < in_.pairs; ++p) {
      pairs.emplace_back(static_cast<pc::NodeId>(2 * p),
                         static_cast<pc::NodeId>(2 * p + 1));
    }
    selector_replay(spans, *grid_, pairs, out);
    std::vector<pc::Bytes> inputs = in_.ping;
    inputs.insert(inputs.end(), in_.stream.begin(), in_.stream.end());
    lz_replay(spans, inputs, out);
    const int nodes = 2 * in_.pairs;
    grid_replay(
        spans, [nodes](gr::Grid& g) { declare_cluster(g, nodes); },
        gr::BuildOptions{}, out);
  }

 private:
  const pc::Bytes& ping(int pair, int j) const {
    return in_.ping[static_cast<std::size_t>(pair * in_.pings + j) % kPool];
  }
  const pc::Bytes& pong(int pair, int j) const {
    return in_.pong[static_cast<std::size_t>(pair * in_.pings + j) % kPool];
  }
  pc::SimTime now() const { return grid_->engine().now(); }
  pc::SimTime& sent_at(int pair, Kind k) {
    return stream_sent_[static_cast<std::size_t>(pair)][k];
  }

  void verify(pc::ByteView got, const pc::Bytes& want) {
    if (got.size() == want.size() &&
        std::memcmp(got.data(), want.data(), want.size()) == 0) {
      ++delivered_;
    } else {
      ++corrupt_;
    }
  }

  void stream_rate(pc::SimTime sent, pc::SimTime received) {
    const double secs = pc::to_seconds(received - sent);
    const double rate = secs > 0 ? kStreamBytes / secs : 1e300;
    max_stream_rate_ = std::max(max_stream_rate_, rate);
  }

  /// Server objects: "echo" returns its arguments, "sink" compares the
  /// 1 MiB stream against the seeded payload and answers 1 if equal.
  void serve(orb::Orb& o, Kind k, int pair) {
    o.activate("echo", [](const std::string&, std::vector<orb::Any> args) {
      return args;
    });
    o.activate("sink", [this, k, pair](const std::string&,
                                       std::vector<orb::Any> args) {
      stream_rate(sent_at(pair, k), now());
      const bool ok = args.size() == 1 &&
                      args[0].kind() == orb::Any::Kind::octets &&
                      args[0].octets() == in_.stream[k];
      return std::vector<orb::Any>{orb::Any(std::uint64_t{ok ? 1u : 0u})};
    });
    o.start();
  }

  orb::Orb& orb_of(Kind k, int node) {
    return *(k == kOmni ? omni_ : mico_)[static_cast<std::size_t>(node)];
  }

  pc::Completion<orb::Reply> invoke(Kind k, int pair, const std::string& m,
                                    std::vector<orb::Any> args) {
    Span s(spans_, Layer::middleware);
    return orb_of(k, 2 * pair)
        .invoke(orb_of(k, 2 * pair + 1).ref_of(m), m, std::move(args));
  }

  /// Set-up: the Java connection and one ORB call per profile, so the
  /// timed phase runs on open connections.
  pc::Task open_pair(int p) {
    const auto client = static_cast<std::size_t>(2 * p);
    auto conn = js::JavaSocket::connect(
        grid_->node(client).vlink(),
        {static_cast<pc::NodeId>(2 * p + 1), kJavaPort}, jvm_[client].get());
    auto r = co_await conn;
    if (r.ok()) jclient_[static_cast<std::size_t>(p)] = *r;
    for (Kind k : {kOmni, kMico}) {
      const std::string m = "echo";
      auto call = orb_of(k, 2 * p).invoke(orb_of(k, 2 * p + 1).ref_of(m), m, {});
      co_await call;
    }
    ++opened_;
  }

  pc::Task probe(Kind k) {
    const pc::SimTime t0 = now();
    const pc::Bytes& one = in_.ping[0];
    const pc::ByteView byte(one.data(), 1);
    for (int i = 0; i < kProbeRounds; ++i) {
      if (k == kMpi) {
        comm_[0]->isend(1, kProbeTag, byte);
        pc::Bytes got = co_await comm_[0]->recv(1, kProbeTag);
        delivered_ += got.size() == 1 && got[0] == one[0] ? 1 : 0;
      } else if (k == kJava) {
        co_await jclient_[0]->write(byte);
        pc::Bytes got = co_await jclient_[0]->read_n(1);
        delivered_ += got.size() == 1 && got[0] == one[0] ? 1 : 0;
      } else {
        const std::string m = "echo";
        auto call = orb_of(k, 0).invoke(orb_of(k, 1).ref_of(m), m, {});
        orb::Reply reply = co_await call;
        delivered_ += reply.status == pc::Status::ok ? 2 : 0;
      }
    }
    latency_us_[k] = pc::to_micros(now() - t0) / (2.0 * kProbeRounds);
    probe_done_ = true;
  }

  pc::Task probe_echo(Kind k) {
    for (int i = 0; i < kProbeRounds; ++i) {
      pc::Bytes got;
      if (k == kMpi) {
        got = co_await comm_[1]->recv(0, kProbeTag);
      } else {
        got = co_await jserver_[0]->read_n(1);
      }
      delivered_ += got.size() == 1 && got[0] == in_.ping[0][0] ? 1 : 0;
      const pc::ByteView back(in_.ping[0].data(), 1);
      if (k == kMpi) {
        comm_[1]->isend(0, kProbeTag, back);
      } else {
        co_await jserver_[0]->write(back);
      }
    }
  }

  pc::Task mpi_client(int p) {
    mpi::Comm& c = *comm_[static_cast<std::size_t>(2 * p)];
    for (int j = 0; j < in_.pings; ++j) {
      pc::Completion<pc::Bytes> reply;
      {
        Span s(spans_, Layer::middleware);
        c.isend(2 * p + 1, kPingTag, pc::view_of(ping(p, j)));
      }
      {
        Span s(spans_, Layer::middleware);
        reply = c.recv(2 * p + 1, kPingTag);
      }
      pc::Bytes got = co_await reply;
      verify(pc::view_of(got), pong(p, j));
    }
    ++finished_;
  }

  pc::Task mpi_server(int p) {
    mpi::Comm& c = *comm_[static_cast<std::size_t>(2 * p + 1)];
    {
      Span s(spans_, Layer::middleware);
      c.isend(2 * p, kStreamTag, pc::view_of(in_.stream[kMpi]));
    }
    for (int j = 0; j < in_.pings; ++j) {
      pc::Completion<pc::Bytes> req;
      {
        Span s(spans_, Layer::middleware);
        req = c.recv(2 * p, kPingTag);
      }
      pc::Bytes got = co_await req;
      verify(pc::view_of(got), ping(p, j));
      Span s(spans_, Layer::middleware);
      c.isend(2 * p, kPingTag, pc::view_of(pong(p, j)));
    }
  }

  pc::Task mpi_stream(int p) {
    mpi::Comm& c = *comm_[static_cast<std::size_t>(2 * p)];
    const pc::SimTime sent = now();
    pc::Completion<pc::Bytes> msg;
    {
      Span s(spans_, Layer::middleware);
      msg = c.recv(2 * p + 1, kStreamTag);
    }
    pc::Bytes got = co_await msg;
    stream_rate(sent, now());
    verify(pc::view_of(got), in_.stream[kMpi]);
    ++finished_;
  }

  pc::Task orb_client(int p, Kind k) {
    for (int j = 0; j < in_.pings; ++j) {
      std::vector<orb::Any> args;
      args.emplace_back(ping(p, j));
      auto call = invoke(k, p, "echo", std::move(args));
      orb::Reply reply = co_await call;
      // The echo carries the request back: one comparison checks the
      // request and the reply.
      const bool ok = reply.status == pc::Status::ok &&
                      reply.results.size() == 1 &&
                      reply.results[0].kind() == orb::Any::Kind::octets &&
                      reply.results[0].octets() == ping(p, j);
      delivered_ += ok ? 2 : 0;
      corrupt_ += ok ? 0 : 1;
    }
    ++finished_;
  }

  pc::Task orb_stream(int p, Kind k) {
    std::vector<orb::Any> args;
    args.emplace_back(in_.stream[k]);
    sent_at(p, k) = now();
    auto call = invoke(k, p, "sink", std::move(args));
    orb::Reply reply = co_await call;
    const bool ok = reply.status == pc::Status::ok &&
                    reply.results.size() == 1 &&
                    reply.results[0].kind() == orb::Any::Kind::u64 &&
                    reply.results[0].u64() == 1;
    // Request (checked by the servant) and reply.
    delivered_ += ok ? 2 : 0;
    corrupt_ += ok ? 0 : 1;
    ++finished_;
  }

  pc::Task java_client(int p) {
    js::JavaSocket& s = *jclient_[static_cast<std::size_t>(p)];
    for (int j = 0; j < in_.pings; ++j) {
      pc::Completion<void> w;
      {
        Span sp(spans_, Layer::middleware);
        w = s.write(pc::view_of(ping(p, j)));
      }
      co_await w;
      pc::Completion<pc::Bytes> r;
      {
        Span sp(spans_, Layer::middleware);
        r = s.read_n(kPingBytes);
      }
      pc::Bytes got = co_await r;
      verify(pc::view_of(got), pong(p, j));
    }
    sent_at(p, kJava) = now();
    pc::Completion<void> w;
    {
      Span sp(spans_, Layer::middleware);
      w = s.write(pc::view_of(in_.stream[kJava]));
    }
    co_await w;
    ++finished_;
  }

  pc::Task java_server(int p) {
    js::JavaSocket& s = *jserver_[static_cast<std::size_t>(p)];
    for (int j = 0; j < in_.pings; ++j) {
      pc::Completion<pc::Bytes> r;
      {
        Span sp(spans_, Layer::middleware);
        r = s.read_n(kPingBytes);
      }
      pc::Bytes got = co_await r;
      verify(pc::view_of(got), ping(p, j));
      pc::Completion<void> w;
      {
        Span sp(spans_, Layer::middleware);
        w = s.write(pc::view_of(pong(p, j)));
      }
      co_await w;
    }
    pc::Completion<pc::Bytes> r;
    {
      Span sp(spans_, Layer::middleware);
      r = s.read_n(kStreamBytes);
    }
    pc::Bytes got = co_await r;
    stream_rate(sent_at(p, kJava), now());
    verify(pc::view_of(got), in_.stream[kJava]);
    ++finished_;
  }

  const Inputs& in_;
  Spans* spans_ = nullptr;  // the traced round's spans, set by run()
  // Declaration order is teardown order reversed: coroutine frames die
  // first, then sockets and personalities, then the circuit and grid.
  std::unique_ptr<gr::Grid> grid_;
  std::unique_ptr<gr::CircuitSet> world_;
  std::vector<std::unique_ptr<mpi::Comm>> comm_;
  std::vector<std::unique_ptr<js::Jvm>> jvm_;
  std::vector<std::unique_ptr<orb::Orb>> omni_;
  std::vector<std::unique_ptr<orb::Orb>> mico_;
  std::vector<std::shared_ptr<js::JavaSocket>> jclient_;
  std::vector<std::shared_ptr<js::JavaSocket>> jserver_;
  std::vector<pc::Task> tasks_;

  int opened_ = 0;
  int finished_ = 0;
  bool probe_done_ = false;
  std::uint64_t delivered_ = 0;
  std::uint64_t corrupt_ = 0;
  std::array<double, kKinds> latency_us_{};
  std::vector<std::array<pc::SimTime, kKinds>> stream_sent_;
  double max_stream_rate_ = 0;
  Tally delta_;
};

}  // namespace

Workload san_rpc(const Options& opt) {
  auto in = std::make_shared<Inputs>();
  const bool full = opt.scale == Scale::full;
  in->pairs = full ? 16 : 2;
  in->pings = full ? 64 : 4;
  pc::Rng rng(opt.seed);
  for (std::size_t i = 0; i < kPool; ++i) {
    in->ping.push_back(random_bytes(rng, kPingBytes));
    in->pong.push_back(random_bytes(rng, kPingBytes));
  }
  for (pc::Bytes& s : in->stream) s = random_bytes(rng, kStreamBytes);
  return {"san-rpc", [in]() -> std::unique_ptr<Round> {
            return std::make_unique<RpcRound>(*in);
          }};
}

}  // namespace perfbench
