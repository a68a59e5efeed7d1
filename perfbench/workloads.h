// The benchmark's workloads and the code that runs one replicate of a workload against the
// real Shard Manager stack (Testbed: router -> discovery -> host -> orchestrator), through the
// public API only.
//
// A replicate is: build the Testbed, bring every replica to ready, start the benchmark's own
// open-loop generators and routers, warm up (all of that is set-up), then run the measured
// phase — requests due in [t0, t0 + measure) plus a drain — with faults injected on a fixed
// sim-time schedule. Every sim-time result is a pure function of (workload, seed).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/spans.h"
#include "src/common/sim_time.h"
#include "src/core/split_merge_planner.h"
#include "src/workload/testbed.h"

namespace perfbench {

using shardman::TimeMicros;

enum class FaultPlan {
  kNone,
  // One server's coordination-store session expires every `churn_period` and reconnects after
  // `churn_reconnect`; the process keeps running but is fenced (its primaries are demoted).
  kSessionChurn,
  // One region's containers fail, the control-plane leader is killed while the orchestrator
  // is recovering, then the region recovers.
  kRegionFailover,
};

struct WorkloadConfig {
  std::string name;
  std::string why;
  shardman::TestbedConfig testbed;  // seed is set per run

  // Open-loop arrivals, per region. Keys are uniform over the key space unless `flash_crowd`.
  double requests_per_second = 100.0;
  double write_fraction = 0.0;
  // Zipf keys plus a flash crowd on one key range, with the split/merge planner driven by the
  // benchmark (the bench/hotspot_slo scenario).
  bool flash_crowd = false;
  double flash_peak = 1.0;
  TimeMicros flash_start = 0;  // relative to the start of the measured phase
  TimeMicros flash_rise = 0;
  TimeMicros flash_hold = 0;
  TimeMicros flash_fall = 0;
  shardman::SplitMergePlannerConfig planner;

  double slo_ms = 100.0;
  TimeMicros warmup = 0;   // sim time of traffic before the measured phase (part of set-up)
  TimeMicros measure = 0;  // requests due in [t0, t0 + measure) are measured
  TimeMicros drain = 0;    // extra sim time for the last requests to finish

  FaultPlan faults = FaultPlan::kNone;
  TimeMicros churn_first = 0;  // relative to t0
  TimeMicros churn_period = 0;
  TimeMicros churn_reconnect = 0;
  // Every region fails once, in a seed-chosen order, `region_period` apart.
  TimeMicros region_first_fail = 0;     // relative to t0
  TimeMicros region_period = 0;
  TimeMicros leader_kill_after = 0;     // relative to each region failure
  TimeMicros region_recover_after = 0;  // relative to each region failure

  // Wall time of one replicate, set-up plus measured phase, on the reference host (4-core
  // x86-64, GCC 12, Release). A run of --seconds S pools max(3, ceil(S / nominal)) replicates,
  // so the replicate count, and with it every sim-time result, depends only on (S, seed), never
  // on host speed.
  double nominal_replicate_s = 1.0;

  double sim_seconds() const { return shardman::ToSeconds(measure + drain); }
};

// False when `name` is not a workload. Besides the workloads of BENCHMARK.json this knows the
// defect reproductions described in README.md, whose traced runs currently fail I1.
bool MakeWorkload(const std::string& name, WorkloadConfig* out);

// Sim-time results of one replicate, or pooled over the replicates of a run: exact, and
// identical for identical (workload, seed).
struct SimMetrics {
  int64_t due = 0;             // requests due in the measured phase
  int64_t ok = 0;              // succeeded
  int64_t ok_within_slo = 0;   // succeeded within the workload's SLO
  int64_t failed = 0;          // completed with an error (retries exhausted, shed, ...)
  int64_t lost = 0;            // never completed: a program fault
  int64_t attempts = 0;        // router attempts summed over completed requests
  int64_t samples = 0;         // successful latency samples
  int64_t beyond_p999 = 0;     // samples strictly above the p99.9 rank
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  int faults = 0;
  int unhealed_faults = 0;     // faults whose servers were still named when they healed
  double failover_ms = 0.0;    // worst fault -> every router's map clear (0 without faults)
  int64_t final_map_version = 0;  // pooled: summed over replicates
  uint64_t final_map_digest = 0;  // pooled: FNV-1a over the replicates' digests

  double goodput_ratio() const {
    return due > 0 ? static_cast<double>(ok_within_slo) / static_cast<double>(due) : 0.0;
  }
  double failed_ratio() const {
    return due > 0 ? static_cast<double>(failed) / static_cast<double>(due) : 0.0;
  }
  // Canonical one-line JSON of every field (the determinism self-test compares these).
  std::string Json() const;
};

struct ReplicateResult {
  double setup_s = 0.0;          // wall: Testbed construction -> ready + warm-up
  double measure_wall_s = 0.0;   // wall of the measured phase
  double sim_seconds = 0.0;      // sim time the measured phase covers
  SimMetrics sim;
  std::vector<uint32_t> latencies;  // every successful request's latency in us, sorted
  // Per-layer metrics (filled in every run; printed for the traced run).
  std::map<std::string, double> layers;
  // Failed correctness checks; a replicate with any is a failed run.
  std::vector<std::string> check_failures;
  // One line per injected fault: when, which servers, and how long until routers were clear.
  std::vector<std::string> fault_log;

  double wall_ms_per_sim_s() const { return measure_wall_s * 1000.0 / sim_seconds; }
};

// Pools the sim-time results of a run's replicates: counts add, failover_ms takes the worst,
// and the latency percentiles are exact over every replicate's samples (1 us bins up to 2^20 us,
// sorted overflow beyond). The 4 MB of bins are written at construction, so they are resident
// for the whole run: the caller can measure their share of the RSS right then.
class SimPool {
 public:
  SimPool() : bins_(static_cast<size_t>(kBins), 0) {}
  void Add(const ReplicateResult& replicate);
  SimMetrics Result() const;

 private:
  static constexpr TimeMicros kBins = TimeMicros{1} << 20;
  TimeMicros ValueAtRank(int64_t rank) const;

  SimMetrics sum_;
  std::vector<uint32_t> bins_;
  std::vector<TimeMicros> overflow_;
};

struct LayerMetricDef {
  const char* name;
  const char* unit;
};
// Every per-layer metric, in report order. A layer with no work reports 0.
const std::vector<LayerMetricDef>& LayerMetricDefs();

// Runs one replicate. `spans` non-null makes it the traced run: spans around every call into
// a layer, the InvariantChecker (I1-I8) and a coordination-store watch for coord counts.
ReplicateResult RunReplicate(const WorkloadConfig& config, uint64_t seed, SpanRecorder* spans);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
