// sm_perfbench: one (workload, seed) of the Shard Manager benchmark per process.
//
//   sm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--git-sha <sha>] [--src-digest <hex>] [--spans-out <path>]
//
// --trace 0 (plain): runs max(3, ceil(seconds / nominal)) replicates, each with its own seed
// derived from --seed, and reports the end-to-end metrics: the fastest replicate's value of the
// wall-clock ones, and the sim-time ones pooled over every replicate's requests (exact).
// --trace 1 (traced): the first replicate twice, plain and then traced with spans around every
// call into a layer, the InvariantChecker and a coordination-store watch; checks that the two
// agree on every sim-time result, reports the per-layer metrics, prints the tracing overhead
// and writes the span dump to --spans-out.
//
// The last line of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exit status is 0 only when every check passed.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/spans.h"
#include "perfbench/workloads.h"

#ifndef SM_PERFBENCH_BUILD_TYPE
#define SM_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef SM_PERFBENCH_CXX
#define SM_PERFBENCH_CXX "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
  std::string spans_out;
};

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "sm_perfbench: " << error << "\n"
            << "usage: sm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            << " [--git-sha <sha>] [--src-digest <hex>] [--spans-out <path>]\n";
  std::exit(2);
}

template <typename T>
T ParseNumber(const std::string& flag, const std::string& value) {
  std::istringstream in(value);
  T parsed{};
  if (!(in >> parsed) || !in.eof() || parsed < T{}) {
    Usage("bad value '" + value + "' for " + flag);
  }
  return parsed;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = ParseNumber<uint64_t>(flag, value);
    } else if (flag == "--seconds") {
      args.seconds = ParseNumber<double>(flag, value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        Usage("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--src-digest") {
      args.src_digest = value;
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) {
    Usage("--workload is required");
  }
  return args;
}

// The wall-clock metrics take the fastest of a run's replicates. On a shared host the program's
// own speed moves by 10-30% within seconds (the process's CPU time moves with its wall time, so
// it is not descheduling), and a slow stretch only ever adds time: the fastest replicate is the
// steadiest reading of what the program itself costs. A median keeps half of the slow stretches.
double Fastest(const std::vector<double>& values) {
  return *std::min_element(values.begin(), values.end());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// Resident set size now, in the same MiB as PeakRssMb.
double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  int64_t size_pages = 0;
  int64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

std::string Num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.15g", value);
  return buf;
}

// Replicate i of a run uses its own seed, derived from the run's seed (splitmix64).
uint64_t SubSeed(uint64_t seed, int i) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(i) + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void PrintReplicate(const char* kind, int index, const ReplicateResult& r) {
  std::cout << kind << " replicate " << index << ": setup_s=" << Num(r.setup_s)
            << " measure_wall_s=" << Num(r.measure_wall_s) << " sim_s=" << Num(r.sim_seconds)
            << " wall_ms_per_sim_s=" << Num(r.wall_ms_per_sim_s()) << "\n  sim " << r.sim.Json()
            << "\n";
  for (const std::string& line : r.fault_log) {
    std::cout << "  " << line << "\n";
  }
  for (const std::string& failure : r.check_failures) {
    std::cout << "  CHECK FAILED: " << failure << "\n";
  }
}

// Per-span-name totals of the traced replicate.
void PrintSpanSummary(const SpanRecorder& spans) {
  struct Agg {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, Agg> by_name;
  for (const SpanRecorder::Span& s : spans.spans()) {
    Agg& agg = by_name[s.name];
    ++agg.count;
    agg.total_ns += s.duration_ns();
    agg.self_ns += s.self_ns();
  }
  std::cout << "spans (name, count, total_ms, self_ms):\n";
  for (const auto& [name, agg] : by_name) {
    std::cout << "  " << name << " " << agg.count << " " << Num(agg.total_ns / 1e6) << " "
              << Num(agg.self_ns / 1e6) << "\n";
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
       << "\": {\"value\": " << Num(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  WorkloadConfig config;
  if (!MakeWorkload(args.workload, &config)) {
    Usage("unknown workload " + args.workload);
  }
  std::cout << "stamp {\"workload\":\"" << config.name << "\",\"seed\":" << args.seed
            << ",\"trace\":" << (args.trace ? 1 : 0)
            << ",\"cores\":" << std::thread::hardware_concurrency() << ",\"compiler\":\""
            << SM_PERFBENCH_CXX << "\",\"build_type\":\"" << SM_PERFBENCH_BUILD_TYPE
            << "\",\"git_sha\":\"" << args.git_sha << "\",\"src_digest\":\"" << args.src_digest
            << "\"}\n";
  std::cout << "workload " << config.name << ": " << config.why << "\n";

  bool correct = true;
  int64_t attempted = 0;
  int64_t lost = 0;
  auto account = [&](const char* kind, int index, const ReplicateResult& r) {
    PrintReplicate(kind, index, r);
    attempted += r.sim.due;
    lost += r.sim.lost;
    correct = correct && r.check_failures.empty();
  };

  std::vector<Metric> metrics;
  if (!args.trace) {
    // A fixed replicate count per (workload, --seconds): sim-time results never depend on how
    // fast the host is.
    const int replicates =
        std::max(3, static_cast<int>(std::ceil(args.seconds / config.nominal_replicate_s)));
    // The pool's latency bins stay resident from here on; their share is taken off the peak.
    const double rss_before_pool = CurrentRssMb();
    SimPool pool;
    const double pool_rss_mb = CurrentRssMb() - rss_before_pool;
    std::vector<double> wall;
    std::vector<double> setup;
    for (int i = 0; i < replicates; ++i) {
      const ReplicateResult r = RunReplicate(config, SubSeed(args.seed, i), nullptr);
      account("plain", i + 1, r);
      pool.Add(r);
      wall.push_back(r.wall_ms_per_sim_s());
      setup.push_back(r.setup_s);
    }
    const SimMetrics sim = pool.Result();
    std::cout << "sim " << sim.Json() << "\n";
    metrics = {
        {"wall_ms_per_sim_s", Fastest(wall), "ms"},
        {"setup_s", Fastest(setup), "s"},
        {"peak_rss_mb", PeakRssMb() - pool_rss_mb, "MB"},
        {"goodput_ratio", sim.goodput_ratio(), "ratio"},
        {"latency_p50_ms", sim.p50_ms, "ms"},
        {"latency_p99_ms", sim.p99_ms, "ms"},
        {"latency_p999_ms", sim.p999_ms, "ms"},
    };
    std::cout << "end-to-end over " << replicates << " replicates (wall-clock metrics are "
              << "the fastest replicate's; sim-time metrics are pooled and exact): failed_ratio="
              << Num(sim.failed_ratio()) << " failover_ms=" << Num(sim.failover_ms)
              << " faults=" << sim.faults << " unhealed_faults=" << sim.unhealed_faults
              << " latency_samples=" << sim.samples << " beyond_p999=" << sim.beyond_p999
              << " latency_pool_rss_mb=" << Num(pool_rss_mb) << " (not in peak_rss_mb)\n";
  } else {
    const uint64_t seed = SubSeed(args.seed, 0);
    const ReplicateResult plain = RunReplicate(config, seed, nullptr);
    account("plain", 1, plain);
    SpanRecorder spans;
    const ReplicateResult traced = RunReplicate(config, seed, &spans);
    account("traced", 1, traced);
    const std::string plain_json = plain.sim.Json();
    const std::string traced_json = traced.sim.Json();
    if (plain_json != traced_json) {
      std::cout << "CHECK FAILED: traced run changed sim-time results:\n  plain  " << plain_json
                << "\n  traced " << traced_json << "\n";
      correct = false;
    }
    const double plain_wall = plain.wall_ms_per_sim_s();
    const double traced_wall = traced.wall_ms_per_sim_s();
    std::cout << "tracing overhead: wall_ms_per_sim_s traced=" << Num(traced_wall)
              << " plain=" << Num(plain_wall) << " overhead=" << Num(traced_wall - plain_wall)
              << " ms (" << Num(100.0 * (traced_wall / plain_wall - 1.0)) << "%)\n";
    PrintSpanSummary(spans);
    if (!args.spans_out.empty()) {
      std::ofstream out(args.spans_out);
      spans.WriteJsonl(out);
      std::cout << "span dump: " << spans.spans().size() << " spans written to "
                << args.spans_out << "\n";
    }
    std::cout << "per-layer (traced replicate; sim.events and sim.ns_per_event from the plain "
              << "one, whose wall time has no tracing in it):\n";
    for (const LayerMetricDef& def : LayerMetricDefs()) {
      const std::string name = def.name;
      const bool from_plain = name == "sim.events" || name == "sim.ns_per_event";
      const double value = (from_plain ? plain : traced).layers.at(name);
      std::cout << "  " << def.name << " " << Num(value) << " " << def.unit << "\n";
      metrics.push_back({def.name, value, def.unit});
    }
  }
  correct = correct && lost == 0;
  PrintResult(correct, attempted, lost, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
