#include "harness.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double Spans::total_ns(Layer l) const {
  double sum = 0;
  for (const Rec& r : recs_) {
    if (r.layer == l) sum += r.ns;
  }
  return sum;
}

std::uint64_t Spans::count(Layer l) const {
  std::uint64_t n = 0;
  for (const Rec& r : recs_) {
    if (r.layer == l) ++n;
  }
  return n;
}

std::vector<std::uint32_t> Spans::sorted(Layer l) const {
  std::vector<std::uint32_t> v;
  for (const Rec& r : recs_) {
    if (r.layer == l) v.push_back(r.ns);
  }
  std::sort(v.begin(), v.end());
  return v;
}

padico::core::Bytes random_bytes(padico::core::Rng& rng, std::size_t n) {
  padico::core::Bytes b(n);
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t v = rng.next_u64();
    std::memcpy(b.data() + i, &v, std::min<std::size_t>(8, n - i));
  }
  return b;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

void same_digest(Checks& c, const std::string& workload, std::string& first,
                 const std::string& got) {
  if (first.empty()) first = got;
  c.expect(got == first,
           workload + ": digest differs between rounds of one seed");
}

double percentile(const std::vector<std::uint32_t>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  // Nearest rank.
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

/// What one round reports from the process it ran in.
struct RoundReport {
  double setup_s = 0;
  double run_s = 0;
  double teardown_s = 0;
  double rss_mb = 0;
  std::uint64_t ops = 0;
  std::uint64_t attempted = 0;
  std::string digest;
  std::vector<std::string> errors;
  std::vector<Metric> layers;  // traced rounds only
};

RoundReport one_round(const Workload& w, bool trace) {
  RoundReport r;
  const std::unique_ptr<Spans> spans =
      trace ? std::make_unique<Spans>() : nullptr;
  const std::uint64_t t0 = now_ns();
  std::unique_ptr<Round> round = w.make();
  const std::uint64_t t1 = now_ns();
  r.ops = round->run(spans.get());
  const std::uint64_t t2 = now_ns();
  r.attempted = round->attempted();
  Checks checks;
  round->check(checks);
  r.errors = checks.errors();
  r.digest = round->digest();
  if (spans != nullptr) round->layer_metrics(*spans, r.layers);
  const std::uint64_t t3 = now_ns();
  round.reset();
  const std::uint64_t t4 = now_ns();
  r.setup_s = static_cast<double>(t1 - t0) * 1e-9;
  r.run_s = static_cast<double>(t2 - t1) * 1e-9;
  r.teardown_s = static_cast<double>(t4 - t3) * 1e-9;
  r.rss_mb = peak_rss_mb();
  return r;
}

// A report crosses the pipe as lines of text: one line of numbers, then
// "d <digest>", "e <check error>" and "m <name> <value> <unit>" lines.
std::string encode(const RoundReport& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%.17g %.17g %.17g %.17g %llu %llu\n",
                r.setup_s, r.run_s, r.teardown_s, r.rss_mb,
                static_cast<unsigned long long>(r.ops),
                static_cast<unsigned long long>(r.attempted));
  std::string out = buf;
  out += "d " + r.digest + "\n";
  for (const std::string& e : r.errors) out += "e " + e + "\n";
  for (const Metric& m : r.layers) {
    std::snprintf(buf, sizeof buf, " %.17g ", m.value);
    out += "m " + m.name + buf + m.unit + "\n";
  }
  return out;
}

RoundReport decode(const std::string& text) {
  RoundReport r;
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error("a round's process sent no report");
  }
  std::istringstream head(line);
  head >> r.setup_s >> r.run_s >> r.teardown_s >> r.rss_mb >> r.ops >>
      r.attempted;
  while (std::getline(in, line)) {
    if (line.size() < 2) continue;
    const std::string rest = line.substr(2);
    if (line[0] == 'd') r.digest = rest;
    if (line[0] == 'e') r.errors.push_back(rest);
    if (line[0] == 'm') {
      std::istringstream m(rest);
      Metric metric;
      m >> metric.name >> metric.value >> metric.unit;
      r.layers.push_back(metric);
    }
  }
  return r;
}

/// Runs one round in a child process of its own and waits for it.  Every
/// round thus starts from the same state, the state a user's fresh
/// process starts from: an untouched heap and allocator, fresh physical
/// pages.  A long-lived process would instead carry the heap layout and
/// glibc's adaptive thresholds from one round into the next, and these
/// drift over a run.
RoundReport round_in_child(const Workload& w, bool trace) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe() failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork() failed");
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    std::string out;
    try {
      out = encode(one_round(w, trace));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      code = 2;
    }
    for (std::size_t done = 0; done < out.size();) {
      const ssize_t n = write(fds[1], out.data() + done, out.size() - done);
      if (n <= 0) {
        code = 2;
        break;
      }
      done += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    std::exit(code);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n > 0) {
      text.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("a round's process failed");
  }
  return decode(text);
}

double rate(const RoundReport& r) {
  return r.run_s > 0 ? static_cast<double>(r.ops) / r.run_s : 0.0;
}

/// Adds one round's operation counts and check findings to the run's.
void account(Result& res, const std::string& workload, std::string& digest,
             const RoundReport& r) {
  res.attempted += r.attempted;
  res.failed += r.attempted - std::min(r.ops, r.attempted);
  for (const std::string& e : r.errors) res.checks.expect(false, e);
  same_digest(res.checks, workload, digest, r.digest);
}

}  // namespace

Result run_workload(const Workload& w, const Options& opt) {
  Result res;
  std::string digest;
  if (!opt.trace) {
    std::vector<double> rates, setups, teardowns, rss;
    const std::uint64_t start = now_ns();
    const auto budget = static_cast<std::uint64_t>(opt.seconds * 1e9);
    while (rates.size() < 3 || now_ns() - start < budget) {
      const RoundReport r = round_in_child(w, false);
      account(res, w.name, digest, r);
      rates.push_back(rate(r));
      setups.push_back(r.setup_s);
      teardowns.push_back(r.teardown_s);
      rss.push_back(r.rss_mb);
      if (!res.checks.ok()) break;
    }
    res.metrics = {
        {"ops_per_s", median(rates), "1/s"},
        {"setup_s", median(setups), "s"},
        {"teardown_s", median(teardowns), "s"},
        {"peak_rss_mb", median(rss), "MB"},
    };
    return res;
  }

  // Traced run: an untraced round, the reference for the tracing
  // overhead, then the traced round the per-layer metrics come from.
  const RoundReport plain = round_in_child(w, false);
  account(res, w.name, digest, plain);
  RoundReport traced = round_in_child(w, true);
  account(res, w.name, digest, traced);
  // A round whose traced run() is not itself traced states its own
  // overhead ratio from a replay it times both ways.
  std::vector<Metric>& layers = traced.layers;
  const bool stated =
      std::any_of(layers.begin(), layers.end(), [](const Metric& m) {
        return m.name == "trace.ops_per_s_ratio";
      });
  const double plain_rate = rate(plain);
  if (!stated) {
    layers.push_back({"trace.ops_per_s_ratio",
                      plain_rate > 0 ? rate(traced) / plain_rate : 0.0,
                      "ratio"});
  }
  res.metrics = std::move(layers);
  return res;
}

}  // namespace perfbench
