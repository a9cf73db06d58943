// perfbench: the repository's benchmark driver binary.
//
//   perfbench --workload <wan-sessions|san-rpc|wan-bulk> --seed <n>
//             --seconds <s> --trace <0|1> [--small]
//   perfbench --selftest
//
// Prints one build/host record line, then, as the last line, the result
// object {"correct", "attempted", "failed", "metrics"}.  Exits non-zero
// when any output check fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "harness.hpp"
#include "layers.hpp"

namespace {

using namespace perfbench;

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

void print_record(const Options& opt) {
  std::printf(
      "{\"perfbench\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"flags\": \"%s\", \"cpu\": \"%s\", "
      "\"nproc\": %u}}\n",
      json_escape(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed), opt.seconds,
      opt.trace ? 1 : 0, PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
      json_escape(PERFBENCH_FLAGS).c_str(), json_escape(cpu_model()).c_str(),
      std::thread::hardware_concurrency());
}

Workload pick(const Options& opt) {
  if (opt.workload == "wan-sessions") return wan_sessions(opt);
  if (opt.workload == "san-rpc") return san_rpc(opt);
  if (opt.workload == "wan-bulk") return wan_bulk(opt);
  throw std::invalid_argument("unknown workload: " + opt.workload);
}

int print_result(Result& res, bool trace) {
  if (trace) {
    // Every per-layer metric appears; a layer the workload bypasses
    // reads 0.
    std::vector<Metric> all;
    for (const auto& [name, unit] : layer_metric_names()) {
      Metric m{name, 0.0, unit};
      for (const Metric& got : res.metrics) {
        if (got.name == name) m.value = got.value;
      }
      all.push_back(m);
    }
    res.metrics = std::move(all);
  }
  for (const std::string& e : res.checks.errors()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  std::string metrics;
  for (const Metric& m : res.metrics) {
    if (!metrics.empty()) metrics += ", ";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    metrics += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      res.checks.ok() ? "true" : "false",
      static_cast<unsigned long long>(res.attempted),
      static_cast<unsigned long long>(res.failed), metrics.c_str());
  std::fflush(stdout);
  return res.checks.ok() ? 0 : 1;
}

/// Each workload at small scale: the real outputs must pass their
/// checks, and every named corruption of them must fail.
int selftest() {
  int bad = 0;
  for (const char* name : {"wan-sessions", "san-rpc", "wan-bulk"}) {
    Options opt;
    opt.workload = name;
    opt.scale = Scale::small;
    const Workload w = pick(opt);
    std::size_t n = 0;
    std::string digest;
    {
      auto round = w.make();
      round->run(nullptr);
      Checks c;
      round->check(c);
      same_digest(c, name, digest, round->digest());
      std::printf("%-13s %-24s %s\n", name, "(unmodified)",
                  c.ok() ? "passes" : "FAILS");
      for (const std::string& e : c.errors()) std::printf("    %s\n", e.c_str());
      bad += c.ok() ? 0 : 1;
      n = round->corruptions().size();
    }
    for (std::size_t i = 0; i < n; ++i) {
      auto round = w.make();
      round->run(nullptr);
      const std::string what = round->corruptions()[i];
      round->corrupt(i);
      Checks c;
      round->check(c);
      same_digest(c, name, digest, round->digest());
      std::printf("%-13s %-24s %s\n", name, what.c_str(),
                  c.ok() ? "NOT CAUGHT" : "caught");
      bad += c.ok() ? 1 : 0;
    }
  }
  std::printf("selftest: %s\n", bad == 0 ? "ok" : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "--selftest") return selftest();
      if (a == "--workload") {
        opt.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (a == "--trace") {
        opt.trace = value() != "0";
      } else if (a == "--small") {
        opt.scale = Scale::small;
      } else {
        throw std::invalid_argument("unknown argument: " + a);
      }
    }
    if (!have_workload) throw std::invalid_argument("--workload is required");
    const Workload w = pick(opt);
    print_record(opt);
    Result res = run_workload(w, opt);
    return print_result(res, opt.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
