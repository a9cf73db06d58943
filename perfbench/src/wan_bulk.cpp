// wan-bulk: few connections, many bytes, over the WAN adapters.  In
// every round, one part after another, a sender posts a batch of
// 64 KiB writes and the receiver drains them (each part is an open loop
// in virtual time: writes never wait for acknowledgements):
//   * AdOC over VTHD on compressible text, then on random bytes;
//   * pstream striping over 4 VTHD sub-links;
//   * VRP over the transcontinental link at 7 % loss, with a 10 % loss
//     budget and with budget 0 (the reliable baseline).
// Part volumes are set so that no part dominates the round's host time.
#include <array>
#include <cstring>
#include <memory>

#include "adapters/vrp.hpp"
#include "core/rng.hpp"
#include "grid/grid.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "simnet/link_model.hpp"
#include "vlink/link.hpp"

namespace perfbench {

namespace {

namespace pc = padico::core;
namespace gr = padico::grid;
namespace sn = padico::simnet;

constexpr std::size_t kWrite = 64 * 1024;
constexpr double kLinkLoss = 0.07;
constexpr double kBudget = 0.10;

enum Part : int {
  kAdocText = 0,
  kAdocRandom,
  kPstream,
  kVrpBudget,
  kVrpReliable,
  kParts,
};
constexpr std::array<const char*, kParts> kPartName = {
    "adoc-text", "adoc-random", "pstream", "vrp-10%", "vrp-reliable"};
constexpr std::array<const char*, kParts> kMethod = {"adoc", "adoc", "pstream",
                                                     "vrp", "vrp"};

/// Seeded inputs, made once per process: one byte stream per part.
struct Inputs {
  std::array<std::size_t, kParts> writes{};
  std::array<pc::Bytes, kParts> data;
  std::uint64_t seed = 0;
};

/// Keyed check word of the VRP streams: every 8-byte word carries its
/// own word index and a hash of it, so a receiver that misses whole
/// chunks can still tell which offset each delivered byte belongs to.
std::uint32_t word_hash(std::uint64_t seed, std::uint64_t idx) {
  pc::Rng r(seed ^ (idx * 0x9e3779b97f4a7c15ull));
  return static_cast<std::uint32_t>(r.next_u64() >> 32);
}

std::uint64_t vrp_word(std::uint64_t seed, std::uint64_t idx) {
  return (idx << 32) | word_hash(seed, idx);
}

pc::Bytes text_bytes(pc::Rng& rng, std::size_t n) {
  static const std::array<const char*, 24> kWords = {
      "grid",    "cluster", "myrinet", "corba",   "mpi",     "socket",
      "stream",  "latency", "the",     "of",      "and",     "padico",
      "network", "method",  "vlink",   "circuit", "parallel","distributed",
      "session", "message", "buffer",  "request", "reply",   "wan"};
  pc::Bytes b;
  b.reserve(n + 16);
  while (b.size() < n) {
    const char* w = kWords[rng.uniform_int(0, kWords.size() - 1)];
    b.insert(b.end(), w, w + std::strlen(w));
    b.push_back(rng.uniform_int(0, 11) == 0 ? '\n' : ' ');
  }
  b.resize(n);
  return b;
}


/// What one part's receiver saw.
struct Received {
  std::uint64_t bytes = 0;      // delivered to the receiver
  std::uint64_t mismatched = 0; // delivered bytes unequal to the input
  std::uint64_t skipped = 0;    // VRP: bytes the receiver gave up on
  double realized_loss = 0;
  bool eof = false;
};

/// The receive-side check of one part, apart from the program: exact
/// parts compare every byte against the input at its offset; VRP parts
/// decode each 8-byte word's offset and compare it with the input there.
class Receiver {
 public:
  Receiver(const pc::Bytes& input, bool exact, std::uint64_t seed)
      : input_(input), exact_(exact), seed_(seed) {}

  void take(pc::ByteView got) {
    if (got.size() == 0) return;
    if (exact_) {
      const std::size_t n = got.size();
      if (got_.bytes + n > input_.size() ||
          std::memcmp(got.data(), input_.data() + got_.bytes, n) != 0) {
        got_.mismatched += n;
      }
      got_.bytes += n;
      return;
    }
    got_.bytes += got.size();
    for (std::size_t i = 0; i < got.size(); ++i) {
      carry_[carried_++] = got.data()[i];
      if (carried_ < 8) continue;
      carried_ = 0;
      std::uint64_t w = 0;
      std::memcpy(&w, carry_.data(), 8);
      const std::uint64_t idx = w >> 32;
      const bool in_order = next_idx_ <= idx;
      if (!in_order || (idx + 1) * 8 > input_.size() ||
          w != vrp_word(seed_, idx)) {
        got_.mismatched += 8;
      }
      next_idx_ = idx + 1;
    }
  }

  Received& result() { return got_; }

 private:
  const pc::Bytes& input_;
  bool exact_;
  std::uint64_t seed_;
  Received got_;
  std::array<std::uint8_t, 8> carry_{};
  std::size_t carried_ = 0;
  std::uint64_t next_idx_ = 0;
};

/// The grid of one transport: two nodes on one WAN profile.
void declare_pair(gr::Grid& g, const sn::LinkModel& model) {
  g.add_nodes(2);
  const sn::NetId net = g.add_network(model);
  g.attach(net, 0);
  g.attach(net, 1);
}

std::unique_ptr<gr::Grid> make_grid(const sn::LinkModel& model,
                                    double budget) {
  auto g = std::make_unique<gr::Grid>();
  declare_pair(*g, model);
  gr::BuildOptions opts;
  opts.vrp.max_loss = budget;
  g->build(opts);
  return g;
}

class BulkRound final : public Round {
 public:
  explicit BulkRound(const Inputs& in) : in_(in) {
    vthd_ = make_grid(sn::profiles::vthd_wan(), 0.0);
    lossy_ = make_grid(sn::profiles::transcontinental_internet(kLinkLoss),
                       kBudget);
    reliable_ = make_grid(
        sn::profiles::transcontinental_internet(kLinkLoss), 0.0);
    for (int p = 0; p < kParts; ++p) {
      receivers_[p] = std::make_unique<Receiver>(
          in_.data[p], p != kVrpBudget, in_.seed);
      open(static_cast<Part>(p));
    }
  }

  std::uint64_t run(Spans* spans) override {
    std::array<Tally, 3> before;
    for (int g = 0; g < 3; ++g) before[g] = Tally::of(grid_of(g).engine());
    std::uint64_t ops = 0;
    for (int p = 0; p < kParts; ++p) ops += transfer(static_cast<Part>(p), spans);
    for (int g = 0; g < 3; ++g) {
      delta_[g] = Tally::of(grid_of(g).engine()) - before[g];
    }
    return ops;
  }

  std::uint64_t attempted() const override {
    std::uint64_t n = 0;
    for (std::size_t w : in_.writes) n += w;
    return n;
  }

  void check(Checks& c) override {
    for (int p = 0; p < kParts; ++p) {
      const Received& r = receivers_[p]->result();
      const std::uint64_t sent = in_.data[p].size();
      const std::string name = kPartName[p];
      c.expect(r.mismatched == 0,
               "wan-bulk: " + name + " delivered bytes differ from the input");
      if (p == kVrpBudget) {
        c.expect(r.bytes + r.skipped == sent,
                 "wan-bulk: vrp-10% delivered + skipped != bytes sent");
        c.expect(static_cast<double>(r.bytes) >=
                     (1.0 - kBudget) * static_cast<double>(sent),
                 "wan-bulk: vrp-10% delivered under 90% of the bytes");
      } else {
        c.expect(r.bytes == sent,
                 "wan-bulk: " + name + " did not deliver exactly the input");
      }
    }
    c.expect(delta_[0].get("adoc.raw_bytes") > 0 &&
                 adoc_text_wire_ < in_.data[kAdocText].size(),
             "wan-bulk: AdOC on text put no fewer bytes on the wire than it "
             "was given");
  }

  std::vector<std::string> corruptions() const override {
    return {"flipped payload byte", "flipped VRP byte", "loss above budget"};
  }

  void corrupt(std::size_t which) override {
    if (which == 2) {
      // Drop 11 % of the delivered bytes as if the budget let them go.
      Received& r = receivers_[kVrpBudget]->result();
      const auto extra = static_cast<std::uint64_t>(
          0.11 * static_cast<double>(in_.data[kVrpBudget].size()));
      r.bytes -= std::min(r.bytes, extra);
      r.skipped += extra;
      return;
    }
    // Deliver the part's whole input again, with one byte flipped.
    const Part p = which == 0 ? kAdocText : kVrpBudget;
    pc::Bytes flipped = in_.data[p];
    flipped[flipped.size() / 3] ^= 0x01;
    receivers_[p] =
        std::make_unique<Receiver>(in_.data[p], p != kVrpBudget, in_.seed);
    receivers_[p]->take(pc::view_of(flipped));
  }

  void layer_metrics(Spans& spans, std::vector<Metric>& out) override {
    Tally all;
    for (const Tally& d : delta_) all += d;
    tally_metrics(all, ops_, spans, out);
    out.push_back({"vlink.write_ns_per_msg",
                   per(spans.total_ns(Layer::vlink_write),
                       static_cast<double>(spans.count(Layer::vlink_write))),
                   "ns"});
    const double pstream_mb =
        static_cast<double>(in_.data[kPstream].size()) / 1e6;
    out.push_back({"vlink.pstream.chunks_per_mb",
                   per(static_cast<double>(delta_[0].get("pstream.chunks")),
                       pstream_mb),
                   "count/MB"});
    const double vrp_mb = static_cast<double>(in_.data[kVrpBudget].size() +
                                              in_.data[kVrpReliable].size()) /
                          1e6;
    out.push_back({"adapters.vrp.retx_per_mb",
                   per(static_cast<double>(delta_[1].get("vrp.retx") +
                                           delta_[2].get("vrp.retx")),
                       vrp_mb),
                   "count/MB"});
    out.push_back({"adapters.vrp.realized_loss",
                   receivers_[kVrpBudget]->result().realized_loss, "ratio"});
    std::vector<std::pair<std::uint64_t, double>> mix;
    for (int g = 0; g < 3; ++g) {
      for (const auto& m : delay_mix(grid_of(g), delta_[g])) mix.push_back(m);
    }
    queue_replay(spans, mix, spans.mean_queued(), in_.seed, out);
    selector_replay(spans, *vthd_, {{0, 1}, {1, 0}}, out);
    std::vector<pc::Bytes> inputs;
    for (Part p : {kAdocText, kAdocRandom}) {
      const pc::Bytes& d = in_.data[p];
      for (std::size_t off = 0; off < d.size(); off += kWrite) {
        inputs.emplace_back(d.begin() + static_cast<std::ptrdiff_t>(off),
                            d.begin() + static_cast<std::ptrdiff_t>(
                                            std::min(off + kWrite, d.size())));
      }
    }
    lz_replay(spans, inputs, out);
    grid_replay(
        spans,
        [](gr::Grid& g) { declare_pair(g, sn::profiles::vthd_wan()); },
        gr::BuildOptions{}, out);
  }

 private:
  gr::Grid& grid_of(int g) {
    return g == 0 ? *vthd_ : g == 1 ? *lossy_ : *reliable_;
  }
  gr::Grid& grid_of(Part p) {
    return p == kVrpBudget ? *lossy_ : p == kVrpReliable ? *reliable_ : *vthd_;
  }

  /// Connect the part's sender (node 0) to its receiver (node 1) with
  /// the part's method, on a port of its own.
  void open(Part p) {
    gr::Grid& g = grid_of(p);
    const auto port = static_cast<pc::Port>(7100 + 100 * p);
    auto accepted = std::make_shared<std::unique_ptr<padico::vlink::Link>>();
    padico::vlink::Driver* drv = g.node(1).vlink().driver(kMethod[p]);
    if (drv == nullptr) return;  // check() reports the missing delivery
    drv->listen(port, [accepted](std::unique_ptr<padico::vlink::Link> l) {
      *accepted = std::move(l);
    });
    auto sender = std::make_shared<std::unique_ptr<padico::vlink::Link>>();
    auto failed = std::make_shared<bool>(false);
    g.node(0).vlink().connect(
        kMethod[p], {1, port},
        [sender, failed](pc::Result<std::unique_ptr<padico::vlink::Link>> r) {
          if (r.ok()) {
            *sender = std::move(*r);
          } else {
            *failed = true;
          }
        });
    drive(g.engine(), nullptr,
          [&] { return (*sender && *accepted) || *failed; });
    drv->unlisten(port);
    tx_[p] = std::move(*sender);
    rx_[p] = std::move(*accepted);
    if (!rx_[p]) return;
    Receiver* recv = receivers_[p].get();
    padico::vlink::Link* rx = rx_[p].get();
    rx->set_ready_handler([recv, rx] {
      const pc::Bytes got = rx->read_available();
      recv->take(pc::view_of(got));
      if (rx->eof_seen()) recv->result().eof = true;
    });
  }

  /// Post every write of the part, then run until the receiver has it
  /// all (or, for VRP, until the stream is resolved up to the fin).
  std::uint64_t transfer(Part p, Spans* spans) {
    if (!tx_[p] || !rx_[p]) return 0;
    gr::Grid& g = grid_of(p);
    const pc::Bytes& data = in_.data[p];
    padico::vlink::Link& tx = *tx_[p];
    for (std::size_t off = 0; off < data.size(); off += kWrite) {
      Span s(spans, Layer::vlink_write);
      tx.post_write(pc::ByteView(data.data() + off,
                                 std::min(kWrite, data.size() - off)));
    }
    const bool vrp = p == kVrpBudget || p == kVrpReliable;
    Received& r = receivers_[p]->result();
    if (vrp) {
      tx.post_close();
      drive(g.engine(), spans, [&r] { return r.eof; });
      if (auto* link = dynamic_cast<padico::vlink::VrpLink*>(rx_[p].get())) {
        r.skipped = link->skipped_bytes();
        r.realized_loss = link->realized_loss();
      }
    } else {
      drive(g.engine(), spans, [&r, &data] { return r.bytes >= data.size(); });
    }
    drive_idle(g.engine(), spans);
    if (p == kAdocText) adoc_text_wire_ = Tally::of(g.engine()).get("adoc.wire_bytes");
    const bool complete = vrp ? r.eof && r.bytes + r.skipped == data.size()
                              : r.bytes == data.size();
    const std::uint64_t done = complete && r.mismatched == 0 ? in_.writes[p] : 0;
    ops_ += done;
    return done;
  }

  const Inputs& in_;
  std::unique_ptr<gr::Grid> vthd_, lossy_, reliable_;
  std::array<std::unique_ptr<Receiver>, kParts> receivers_;
  std::array<std::unique_ptr<padico::vlink::Link>, kParts> tx_, rx_;
  std::array<Tally, 3> delta_;
  std::uint64_t adoc_text_wire_ = 0;
  std::uint64_t ops_ = 0;
};

}  // namespace

Workload wan_bulk(const Options& opt) {
  auto in = std::make_shared<Inputs>();
  const bool full = opt.scale == Scale::full;
  // 64 KiB writes per part, sized from each part's host throughput so
  // that no single part dominates a round.
  in->writes = full ? std::array<std::size_t, kParts>{48, 160, 320, 96, 96}
                    : std::array<std::size_t, kParts>{2, 2, 2, 4, 4};
  in->seed = opt.seed;
  pc::Rng rng(opt.seed);
  in->data[kAdocText] = text_bytes(rng, in->writes[kAdocText] * kWrite);
  in->data[kAdocRandom] = random_bytes(rng, in->writes[kAdocRandom] * kWrite);
  in->data[kPstream] = random_bytes(rng, in->writes[kPstream] * kWrite);
  for (Part p : {kVrpBudget, kVrpReliable}) {
    pc::Bytes& d = in->data[p];
    d.resize(in->writes[p] * kWrite);
    for (std::size_t i = 0; i < d.size() / 8; ++i) {
      const std::uint64_t w = vrp_word(opt.seed, i);
      std::memcpy(d.data() + 8 * i, &w, 8);
    }
  }
  return {"wan-bulk", [in]() -> std::unique_ptr<Round> {
            return std::make_unique<BulkRound>(*in);
          }};
}

}  // namespace perfbench
