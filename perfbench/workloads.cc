#include "perfbench/workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <sstream>
#include <utility>

#include "src/chaos/invariant_checker.h"
#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/discovery/shard_map.h"
#include "src/obs/metrics.h"
#include "src/workload/load_gen.h"

namespace perfbench {

using shardman::AppId;
using shardman::InvariantChecker;
using shardman::Millis;
using shardman::RegionId;
using shardman::RequestOutcome;
using shardman::RequestType;
using shardman::Rng;
using shardman::Seconds;
using shardman::ServerId;
using shardman::ServiceRouter;
using shardman::ShardId;
using shardman::ShardMap;
using shardman::ShardMapDelta;
using shardman::SplitMergePlanner;
using shardman::Testbed;
using shardman::TestbedConfig;

namespace {

constexpr uint64_t kKeyspace = ~0ULL;  // exclusive end of the uniform app-spec key ranges
constexpr TimeMicros kObserverPeriod = Millis(1);
// Sim time per RunUntil call of the measured phase: one span each in the traced run, and the
// same slicing in the plain run.
constexpr TimeMicros kSlice = Millis(100);
constexpr int kClosureSampleKeys = 1024;
// Share of the periodic solver cap at which LocalSearch's first goal batch is cut off
// (src/solver/local_search.cc).
constexpr double kFirstBatchShare = 0.35;

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : bytes) {
    h = (h ^ c) * 0x100000001B3ULL;
  }
  return h;
}

TestbedConfig BaseTestbed(int regions, int servers_per_region) {
  TestbedConfig tb;
  tb.regions.clear();
  for (int r = 0; r < regions; ++r) {
    tb.regions.push_back("region" + std::to_string(r));
  }
  tb.servers_per_region = servers_per_region;
  tb.delta_dissemination = true;
  return tb;
}

// The hotspot scenario of bench/hotspot_slo at its 4x peak: 2 regions x 8 servers with finite
// service rate, 8 -> <=64 key-range shards, Zipf arrivals and a flash crowd on one key range.
WorkloadConfig FlashCrowd() {
  WorkloadConfig w;
  w.name = "flash_crowd";
  w.why = "data plane: open-loop Zipf traffic with a 4x flash crowd that only splitting fixes";
  TestbedConfig& tb = w.testbed;
  tb = BaseTestbed(/*regions=*/2, /*servers_per_region=*/8);
  const int max_shards = 64;
  tb.app = shardman::MakeUniformAppSpec(AppId(1), "hotspot", /*num_shards=*/8,
                                        shardman::ReplicationStrategy::kPrimaryOnly, 1);
  tb.app.placement.metrics = shardman::MetricSet({"cpu"});
  tb.request_accounting = true;
  tb.accounting_shard_buckets = max_shards;
  tb.server_service_rate = 900.0;
  tb.request_rate_cost = 100.0 / tb.server_service_rate;
  tb.mini_sm.orchestrator.load_poll_interval = Seconds(2);
  tb.server_queue_limit = Millis(400);
  // Control shard plus one generator shard per region.
  tb.sim_shards = 3;
  tb.sim_threads = 2;

  w.requests_per_second = 800.0;
  w.flash_crowd = true;
  w.flash_peak = 4.0;
  w.flash_start = Seconds(12);
  w.flash_rise = Seconds(4);
  w.flash_hold = Seconds(48);
  w.flash_fall = Seconds(6);
  w.planner.window = Millis(500);
  w.planner.hot_requests_per_window = 250;
  w.planner.hot_p99_ms = 150.0;
  w.planner.cold_requests_per_window = 25;
  w.planner.split_after_windows = 2;
  w.planner.merge_after_windows = 6;
  w.planner.cooldown_windows = 1;
  w.planner.max_shards = max_shards;
  w.slo_ms = 100.0;
  w.warmup = Seconds(5);
  w.measure = Seconds(86);  // flash start + rise + hold + fall + 16 s tail
  w.drain = Seconds(3);
  w.nominal_replicate_s = 1.1;
  return w;
}

// Control plane, small deltas over a big map: 4,000 shards x 3 replicas on 3 x 16 servers,
// with one session expiry every 10 s under light traffic. The 30 s warm-up takes in the first
// periodic rebalance (a ~1 s solve and thousands of moves from the initial placement), so the
// measured phase is the steady churn, not the one-off convergence.
WorkloadConfig FleetChurn() {
  WorkloadConfig w;
  w.name = "fleet_churn";
  w.why = "control plane: small deltas over a 4,000-shard map as server sessions expire";
  TestbedConfig& tb = w.testbed;
  tb = BaseTestbed(/*regions=*/3, /*servers_per_region=*/16);
  tb.app = shardman::MakeUniformAppSpec(AppId(1), "churn", /*num_shards=*/4000,
                                        shardman::ReplicationStrategy::kPrimarySecondary, 3);
  tb.app.placement.metrics = shardman::MetricSet({"cpu"});

  w.requests_per_second = 100.0;
  w.write_fraction = 0.1;
  w.slo_ms = 150.0;
  w.warmup = Seconds(30);
  w.measure = Seconds(240);
  w.drain = Seconds(4);
  w.faults = FaultPlan::kSessionChurn;
  w.churn_first = Seconds(5);
  w.churn_period = Seconds(10);
  w.churn_reconnect = Seconds(8);
  w.nominal_replicate_s = 4.2;
  return w;
}

// Control plane, large deltas and a leader takeover: the replicated control plane over
// 2,000 shards x 3 replicas on 3 x 12 servers; a region fails, the leader is killed while the
// orchestrator re-places the lost replicas, and the region recovers.
WorkloadConfig RegionFailover() {
  WorkloadConfig w;
  w.name = "region_failover";
  w.why = "control plane: region loss, leader kill mid-recovery and SMR takeover from coord";
  TestbedConfig& tb = w.testbed;
  tb = BaseTestbed(/*regions=*/3, /*servers_per_region=*/12);
  tb.app = shardman::MakeUniformAppSpec(AppId(1), "failover", /*num_shards=*/2000,
                                        shardman::ReplicationStrategy::kPrimarySecondary, 3);
  tb.app.placement.metrics = shardman::MetricSet({"cpu"});
  tb.smr_control_plane = true;
  tb.smr.num_replicas = 3;

  w.requests_per_second = 100.0;
  w.write_fraction = 0.1;
  w.slo_ms = 150.0;
  w.warmup = Seconds(5);
  w.measure = Seconds(120);
  w.drain = Seconds(4);
  w.faults = FaultPlan::kRegionFailover;
  w.region_first_fail = Seconds(5);
  w.region_period = Seconds(40);
  // Mid-recovery: the leader dies while the promotions that replace the lost primaries are in
  // flight, so its successor must rebuild from coord and reconcile them from the op-log.
  w.leader_kill_after = Millis(300);
  w.region_recover_after = Seconds(25);
  w.nominal_replicate_s = 3.4;
  return w;
}

// Exact nearest-rank percentile of sorted samples.
size_t RankIndex(size_t n, double p) {
  const auto rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  return rank == 0 ? 0 : rank - 1;
}

class Scenario {
 public:
  Scenario(const WorkloadConfig& config, uint64_t seed, SpanRecorder* spans)
      : config_(config), seed_(seed), spans_(spans), rng_(seed ^ 0x50'45'52'46'42'45'4EULL) {}

  ReplicateResult Run() {
    Setup();
    Measure();
    Finish();
    return std::move(result_);
  }

 private:
  struct Generator {
    explicit Generator(uint64_t seed) : rng(seed) {}
    Rng rng;
    TimeMicros next_candidate = 0;
    int64_t windows = 0;  // GenerateWindow events run (counted per generator: one shard each)
  };
  struct Fault {
    TimeMicros at = 0;
    TimeMicros heals_at = 0;
    std::vector<ServerId> servers;
    // A fenced (session-expired) server keeps serving as a secondary: only its primary role
    // must leave the map. A crashed server must leave the map entirely.
    bool primary_only = false;
    bool closed = false;
    // Per router: the map version last scanned (-1 = none) and whether it was clear, so each
    // map version is scanned once per fault rather than once per tick.
    std::vector<int64_t> scanned_version;
    std::vector<bool> router_clear;
  };

  int FeederShard(int region) const {
    const int shards = config_.testbed.sim_shards;
    return shards > 1 ? 1 + region % (shards - 1) : 0;
  }

  // -- Set-up --------------------------------------------------------------------------------

  void Setup() {
    const auto wall_start = std::chrono::steady_clock::now();
    SpanScope setup_span(spans_, "setup");
    shardman::obs::DefaultMetrics().ResetValues();
    TestbedConfig tb = config_.testbed;
    tb.seed = seed_;
    {
      SpanScope span(spans_, "workload.Testbed");
      bed_ = std::make_unique<Testbed>(tb);
    }
    CacheRegistryPointers();
    bed_->sim().SchedulePeriodic(kObserverPeriod, kObserverPeriod, [this]() { ObserverTick(); });
    {
      SpanScope span(spans_, "workload.Testbed::Start+RunUntilAllReady");
      bed_->Start();
      if (!bed_->RunUntilAllReady(shardman::Minutes(5))) {
        result_.check_failures.push_back("testbed did not reach all-ready within 5 sim-minutes");
      }
    }
    const int regions = bed_->num_regions();
    for (int r = 0; r < regions; ++r) {
      routers_.push_back(bed_->CreateRouter(RegionId(r)));
    }
    if (config_.flash_crowd) {
      const int app_slot = bed_->accounting().AppSlot(bed_->spec().id);
      planner_ = std::make_unique<SplitMergePlanner>(&bed_->sim(), &bed_->orchestrator(),
                                                     &bed_->accounting(), app_slot,
                                                     config_.planner);
      // The planner's own Start() schedules exactly this; driving it here lets the traced run
      // time each tick.
      bed_->sim().SchedulePeriodic(config_.planner.window, config_.planner.window, [this]() {
        SpanScope span(spans_, "core.SplitMergePlanner::Tick");
        planner_->Tick();
      });
    }
    if (spans_ != nullptr) {
      // Sampled exactly as InvariantChecker::Start would, but from here so each sample is a
      // span of its own.
      checker_ = std::make_unique<InvariantChecker>(bed_.get());
      const TimeMicros interval = shardman::InvariantCheckerConfig{}.sample_interval;
      bed_->sim().SchedulePeriodic(interval, interval, [this]() {
        ++checker_events_;
        SpanScope span(spans_, "chaos.InvariantChecker::CheckNow");
        checker_->CheckNow();
      });
      const std::string prefix = "/sm/" + bed_->spec().name + "/";
      bed_->coord().Watch(prefix, [this](const shardman::WatchEvent& event) {
        if (event.type != shardman::WatchEventType::kDeleted) {
          ++coord_writes_;
          coord_bytes_ += static_cast<int64_t>(event.path.size() + event.data.size());
        }
      });
    }

    shardman::ShardedSimulator& ssim = bed_->sharded_sim();
    window_ = std::max<TimeMicros>(ssim.lookahead(), Millis(20));
    measure_begin_ = ssim.Now() + config_.warmup;
    measure_end_ = measure_begin_ + config_.measure;
    Rng master(seed_ ^ 0x47'45'4E'45'52'41'54ULL);
    for (int r = 0; r < regions; ++r) {
      generators_.push_back(std::make_unique<Generator>(master.Next()));
      ssim.Send(FeederShard(r), 0, [this, r]() { GenerateWindow(r); });
    }
    {
      SpanScope span(spans_, "warmup");
      ssim.RunUntil(measure_begin_);
    }
    result_.setup_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  }

  void CacheRegistryPointers() {
    shardman::obs::MetricsRegistry& reg = shardman::obs::DefaultMetrics();
    solver_wall_ = reg.GetHistogram("sm.solver.wall_ms");
    allocs_emergency_ = reg.GetCounter("sm.orchestrator.allocs_emergency");
  }

  // -- Traffic -------------------------------------------------------------------------------

  double RateFactorAt(TimeMicros t) const {
    if (!config_.flash_crowd || config_.flash_peak <= 1.0) {
      return 1.0;
    }
    return shardman::FlashCrowdFactor(t - measure_begin_, config_.flash_start, config_.flash_rise,
                                      config_.flash_hold, config_.flash_fall, config_.flash_peak);
  }

  // Runs on the region's generator shard and produces the arrivals of one window, one full
  // window ahead, so every cross-shard send satisfies the lookahead bound.
  void GenerateWindow(int region) {
    shardman::ShardedSimulator& ssim = bed_->sharded_sim();
    shardman::Simulator& engine = ssim.shard(FeederShard(region));
    const TimeMicros now = engine.Now();
    if (now >= measure_end_) {
      return;
    }
    Generator& gen = *generators_[static_cast<size_t>(region)];
    ++gen.windows;
    const TimeMicros begin = now + window_;
    const TimeMicros end = std::min(begin + window_, measure_end_);
    // Thinning at the peak rate gives an exact nonhomogeneous Poisson process.
    const double peak = config_.flash_crowd ? config_.flash_peak : 1.0;
    const double mean_gap_us = 1e6 / (config_.requests_per_second * peak);
    gen.next_candidate = std::max(gen.next_candidate, begin);
    while (gen.next_candidate < end) {
      const TimeMicros at = gen.next_candidate;
      gen.next_candidate +=
          std::max<TimeMicros>(1, static_cast<TimeMicros>(gen.rng.Exponential(mean_gap_us)));
      const double factor = RateFactorAt(at);
      if (factor < peak && !gen.rng.Bernoulli(factor / peak)) {
        continue;
      }
      uint64_t key;
      RequestType type = RequestType::kRead;
      if (config_.flash_crowd) {
        // bench/hotspot_slo's key model: the rate above baseline is a flatter Zipf crowd on a
        // tight key range half the key space away from the scattered baseline.
        shardman::ZipfKeyConfig zipf;
        if (factor > 1.0 && gen.rng.Bernoulli((factor - 1.0) / factor)) {
          zipf.population = 1 << 14;
          zipf.s = 0.9;
          zipf.hot_center = kKeyspace / 2;
        } else {
          zipf.population = 1 << 20;
          zipf.s = 1.2;
          zipf.scatter = true;
        }
        key = shardman::SampleZipfKey(gen.rng, zipf);
      } else {
        key = gen.rng.Next();
        if (config_.write_fraction > 0.0 && gen.rng.Bernoulli(config_.write_fraction)) {
          type = RequestType::kWrite;
        }
      }
      ssim.Send(0, at - now, [this, region, key, type, at]() { OnArrival(region, key, type, at); });
    }
    engine.Schedule(window_, [this, region]() { GenerateWindow(region); });
  }

  void OnArrival(int region, uint64_t key, RequestType type, TimeMicros due) {
    if (planner_ != nullptr) {
      planner_->ObserveKey(key);
    }
    const bool counted = due >= measure_begin_ && due < measure_end_;
    if (counted) {
      ++sim_.due;
    }
    SpanScope span(spans_, "routing.ServiceRouter::Route");
    routers_[static_cast<size_t>(region)]->Route(
        key, type, [this, due, counted](const RequestOutcome& outcome) {
          if (!counted) {
            return;
          }
          ++completed_;
          sim_.attempts += outcome.attempts;
          if (!outcome.success) {
            ++sim_.failed;
            return;
          }
          ++sim_.ok;
          const TimeMicros latency = bed_->sim().Now() - due;
          latencies_.push_back(static_cast<uint32_t>(latency));
          if (shardman::ToMillis(latency) <= config_.slo_ms) {
            ++sim_.ok_within_slo;
          }
        });
  }

  // -- Faults --------------------------------------------------------------------------------

  void ScheduleFaults() {
    shardman::ShardedSimulator& ssim = bed_->sharded_sim();
    if (config_.faults == FaultPlan::kSessionChurn) {
      for (TimeMicros t = measure_begin_ + config_.churn_first; t < measure_end_;
           t += config_.churn_period) {
        ssim.ScheduleBarrierAt(t, [this]() { ExpireOneSession(); });
      }
    } else if (config_.faults == FaultPlan::kRegionFailover) {
      std::vector<int32_t> order;
      for (int32_t r = 0; r < bed_->num_regions(); ++r) {
        order.push_back(r);
      }
      for (size_t i = order.size(); i > 1; --i) {  // seeded Fisher-Yates
        std::swap(order[i - 1], order[static_cast<size_t>(
                                    rng_.UniformInt(0, static_cast<int64_t>(i) - 1))]);
      }
      for (size_t c = 0; c < order.size(); ++c) {
        const TimeMicros fail_at = measure_begin_ + config_.region_first_fail +
                                   static_cast<TimeMicros>(c) * config_.region_period;
        const RegionId region(order[c]);
        ssim.ScheduleBarrierAt(fail_at, [this, region]() { FailRegion(region); });
        ssim.ScheduleBarrierAt(fail_at + config_.leader_kill_after, [this]() {
          SpanScope span(spans_, "smr.ControlPlaneReplicaSet::KillLeader");
          bed_->replica_set()->KillLeader();
        });
        ssim.ScheduleBarrierAt(fail_at + config_.region_recover_after, [this, region]() {
          SpanScope span(spans_, "cluster.ClusterManager::RecoverRegion");
          bed_->RecoverRegion(region);
        });
      }
    }
  }

  void ExpireOneSession() {
    const TimeMicros now = bed_->sim().Now();
    std::vector<ServerId> candidates;
    for (ServerId server : bed_->servers()) {
      auto it = reconnect_at_.find(server.value);
      if (it == reconnect_at_.end() || it->second <= now) {
        candidates.push_back(server);
      }
    }
    if (candidates.empty()) {
      return;
    }
    const ServerId victim = candidates[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(candidates.size()) - 1))];
    reconnect_at_[victim.value] = now + config_.churn_reconnect;
    Fault fault;
    fault.at = now;
    fault.heals_at = now + config_.churn_reconnect;
    fault.servers = {victim};
    fault.primary_only = true;
    OpenFault(std::move(fault));
    SpanScope span(spans_, "workload.Testbed::ExpireServerSession");
    bed_->ExpireServerSession(victim, config_.churn_reconnect);
  }

  void FailRegion(RegionId region) {
    Fault fault;
    fault.at = bed_->sim().Now();
    fault.heals_at = fault.at + config_.region_recover_after;
    for (ServerId server : bed_->servers()) {
      if (bed_->region_of(server) == region) {
        fault.servers.push_back(server);
      }
    }
    OpenFault(std::move(fault));
    SpanScope span(spans_, "cluster.ClusterManager::FailRegion");
    bed_->FailRegion(region);
  }

  void OpenFault(Fault fault) {
    if (checker_ != nullptr) {
      // I2 (planned-unavailability cap) is suspended while an unplanned fault is active; the
      // bracket closes a margin after the fault heals, once the servers have rejoined.
      checker_->PushUnplannedFault();
      bed_->sim().ScheduleAt(fault.heals_at + Seconds(5), [this]() {
        ++checker_events_;
        checker_->PopUnplannedFault();
      });
    }
    fault.scanned_version.assign(routers_.size(), -1);
    fault.router_clear.assign(routers_.size(), false);
    faults_.push_back(std::move(fault));
    ++sim_.faults;
  }

  // True when `map` names none of the fault's servers in a role they can no longer fill.
  static bool MapClear(const ShardMap* map, const Fault& fault) {
    if (map == nullptr) {
      return false;
    }
    for (const shardman::ShardMapEntry& entry : map->entries) {
      for (const shardman::ShardMapReplica& replica : entry.replicas) {
        if (fault.primary_only && replica.role != shardman::ReplicaRole::kPrimary) {
          continue;
        }
        if (std::find(fault.servers.begin(), fault.servers.end(), replica.server) !=
            fault.servers.end()) {
          return false;
        }
      }
    }
    return true;
  }

  // -- Observer: a 1 ms sim-time tick that only reads state ---------------------------------

  void ObserverTick() {
    ++observer_ticks_;
    const TimeMicros now = bed_->sim().Now();
    TrackSolverWall();
    for (Fault& fault : faults_) {
      if (fault.closed) {
        continue;
      }
      bool clear = true;
      for (size_t r = 0; r < routers_.size(); ++r) {
        const ShardMap* map = routers_[r]->map();
        const int64_t version = map != nullptr ? map->version : -1;
        if (version != fault.scanned_version[r]) {
          fault.scanned_version[r] = version;
          fault.router_clear[r] = MapClear(map, fault);
        }
        clear = clear && fault.router_clear[r];
      }
      if (clear || now >= fault.heals_at) {
        fault.closed = true;
        if (!clear) {
          ++sim_.unhealed_faults;
        }
        sim_.failover_ms = std::max(sim_.failover_ms, shardman::ToMillis(now - fault.at));
        std::ostringstream os;
        os << "fault at t=" << shardman::ToSeconds(fault.at - measure_begin_) << "s servers="
           << fault.servers.size() << (fault.primary_only ? " (primary role)" : " (any role)")
           << (clear ? " cleared after " : " NOT cleared before healing, ")
           << shardman::ToMillis(now - fault.at) << " ms";
        result_.fault_log.push_back(os.str());
      }
    }
    if (spans_ != nullptr && now >= measure_begin_) {
      ReplayPublishes();
    }
  }

  // Solve wall times are read from the sm.solver.wall_ms histogram sum between ticks: exact
  // when one solve ran in the tick, an upper bound on the largest otherwise. A solve fails the
  // run past the earliest wall deadline its cap sets: half the cap for an emergency solve,
  // which places in one pass, and LocalSearch's first goal-batch deadline (35% of the cap) for
  // a periodic one. Below that no deadline of the solve can bind.
  void TrackSolverWall() {
    const double sum = solver_wall_->histogram().sum();
    const int64_t emergency = allocs_emergency_->value();
    if (sum != last_solver_sum_) {
      const double delta_ms = sum - last_solver_sum_;
      const shardman::OrchestratorConfig& oc = config_.testbed.mini_sm.orchestrator;
      const bool is_emergency = emergency != last_emergency_;
      const double cap_ms = shardman::ToMillis(is_emergency ? oc.emergency_solver_budget
                                                            : oc.periodic_solver_budget);
      const double limit_ms = cap_ms * (is_emergency ? 0.5 : kFirstBatchShare);
      solver_wall_max_ms_ = std::max(solver_wall_max_ms_, delta_ms);
      if (delta_ms > limit_ms) {
        std::ostringstream os;
        os << "solver wall " << delta_ms << " ms exceeds " << limit_ms << " ms, the earliest "
           << "deadline of its " << cap_ms << " ms " << (is_emergency ? "emergency" : "periodic")
           << " cap, at sim t=" << bed_->sim().Now();
        result_.check_failures.push_back(os.str());
      }
    }
    last_solver_sum_ = sum;
    last_emergency_ = emergency;
  }

  // Traced run: replays DiffShardMaps / ApplyShardMapDelta over consecutive versions of the
  // authoritative map, timing each.
  void ReplayPublishes() {
    std::shared_ptr<const ShardMap> current = bed_->discovery().CurrentShared(bed_->spec().id);
    if (current == nullptr || (last_map_ != nullptr && current->version == last_map_->version)) {
      return;
    }
    if (last_map_ != nullptr) {
      SpanScope replay(spans_, "bench.replay");
      ShardMapDelta delta;
      {
        SpanScope span(spans_, "discovery.DiffShardMaps");
        delta = shardman::DiffShardMaps(*last_map_, *current);
      }
      ShardMap copy;
      {
        SpanScope span(spans_, "bench.copy_map");
        copy = *last_map_;
      }
      bool applied;
      {
        SpanScope span(spans_, "discovery.ApplyShardMapDelta");
        applied = shardman::ApplyShardMapDelta(delta, &copy);
      }
      bool reproduced;
      {
        SpanScope span(spans_, "bench.check_replay");
        reproduced = applied && copy.version == current->version &&
                     copy.entries == current->entries;
      }
      if (!reproduced) {
        result_.check_failures.push_back("replayed delta does not reproduce map version " +
                                         std::to_string(current->version));
      }
      ++replayed_;
      replayed_rows_ += static_cast<int64_t>(delta.changed.size());
      version_steps_ += current->version - last_map_->version;
    }
    last_map_ = std::move(current);
  }

  // -- Measured phase ------------------------------------------------------------------------

  struct Baseline {
    uint64_t events = 0;
    uint64_t cross_shard = 0;
    uint64_t net_sent = 0;
    uint64_t net_dropped = 0;
    int64_t publishes = 0;
    int64_t delta_deliveries = 0;
    int64_t rebuilds = 0;
    int64_t patches = 0;
    int64_t served = 0;
    int64_t shed = 0;
    int64_t forwarded = 0;
    int64_t rejected = 0;
    int64_t smr_failovers = 0;
    size_t smr_gaps = 0;
    int64_t bench_events = 0;
  };

  Baseline TakeBaseline() {
    Baseline b;
    b.events = bed_->sharded_sim().ExecutedEvents();
    b.cross_shard = bed_->sharded_sim().cross_shard_messages();
    b.net_sent = bed_->network().messages_sent();
    b.net_dropped = bed_->network().messages_dropped();
    b.publishes = bed_->discovery().publishes();
    b.delta_deliveries = bed_->discovery().delta_deliveries();
    for (const auto& router : routers_) {
      b.rebuilds += router->cache_rebuilds();
      b.patches += router->cache_patches();
    }
    for (ServerId server : bed_->servers()) {
      const shardman::ShardHostBase* host = bed_->app_server(server);
      b.served += host->served_requests();
      b.shed += host->shed();
      b.forwarded += host->forwarded_requests();
      b.rejected += host->rejected_requests();
    }
    if (bed_->replica_set() != nullptr) {
      b.smr_failovers = bed_->replica_set()->failovers();
      b.smr_gaps = bed_->replica_set()->leaderless_gaps().size();
    }
    // The benchmark's own scheduled events: observer ticks, generator windows and (traced run)
    // checker samples and fault brackets. Arrivals are not among them: each is a client
    // request into a router.
    b.bench_events = observer_ticks_ + checker_events_;
    for (const auto& gen : generators_) {
      b.bench_events += gen->windows;
    }
    return b;
  }

  void Measure() {
    ScheduleFaults();
    // Registry counters cover the measured phase only; the solver-wall tracker follows.
    shardman::obs::DefaultMetrics().ResetValues();
    last_solver_sum_ = 0.0;
    last_emergency_ = 0;
    base_ = TakeBaseline();
    measure_first_span_ = spans_ != nullptr ? spans_->spans().size() : 0;
    shardman::ShardedSimulator& ssim = bed_->sharded_sim();
    const TimeMicros end = measure_end_ + config_.drain;
    const auto wall_start = std::chrono::steady_clock::now();
    {
      SpanScope measure_span(spans_, "measure");
      while (ssim.Now() < end) {
        SpanScope span(spans_, "sim.ShardedSimulator::RunUntil");
        ssim.RunUntil(std::min(end, ssim.Now() + kSlice));
      }
    }
    result_.measure_wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
    result_.sim_seconds = config_.sim_seconds();
    measure_last_span_ = spans_ != nullptr ? spans_->spans().size() : 0;
  }

  // -- Checks and results --------------------------------------------------------------------

  // I8 closure from the client side: every router resolves a fixed key sample to a shard that
  // its map places on at least one live server that is serving it.
  void CheckClientClosure() {
    Rng keys(seed_ ^ 0x434C4F53555245ULL);
    std::vector<uint64_t> sample;
    for (int i = 0; i < kClosureSampleKeys; ++i) {
      sample.push_back(keys.Next());
    }
    for (const auto& router : routers_) {
      const ShardMap* map = router->map();
      if (map == nullptr) {
        result_.check_failures.push_back("a router never received a shard map");
        continue;
      }
      for (uint64_t key : sample) {
        const ShardId shard = router->ResolveShard(key);
        const shardman::ShardMapEntry* entry = map->Find(shard);
        bool served = false;
        if (entry != nullptr) {
          for (const shardman::ShardMapReplica& replica : entry->replicas) {
            const shardman::ShardHostBase* host = bed_->app_server(replica.server);
            if (host != nullptr && host->Serving(shard)) {
              served = true;
              break;
            }
          }
        }
        if (!served) {
          std::ostringstream os;
          os << "closure: region " << router->region().value << " key " << key
             << " resolves to shard " << shard.value << " with no serving replica (map v"
             << map->version << ")";
          result_.check_failures.push_back(os.str());
          return;
        }
      }
    }
  }

  void Finish() {
    sim_.lost = sim_.due - completed_;
    if (sim_.lost != 0) {
      result_.check_failures.push_back(std::to_string(sim_.lost) +
                                       " due requests never completed");
    }
    std::sort(latencies_.begin(), latencies_.end());
    sim_.samples = static_cast<int64_t>(latencies_.size());
    if (!latencies_.empty()) {
      const size_t n = latencies_.size();
      sim_.p50_ms = shardman::ToMillis(latencies_[RankIndex(n, 0.50)]);
      sim_.p99_ms = shardman::ToMillis(latencies_[RankIndex(n, 0.99)]);
      const size_t i999 = RankIndex(n, 0.999);
      sim_.p999_ms = shardman::ToMillis(latencies_[i999]);
      sim_.beyond_p999 = static_cast<int64_t>(n - 1 - i999);
    }
    if (sim_.beyond_p999 < 10) {
      result_.check_failures.push_back("p99.9 has only " + std::to_string(sim_.beyond_p999) +
                                       " samples beyond it (need >= 10)");
    }
    const ShardMap* final_map = bed_->discovery().Current(bed_->spec().id);
    if (final_map != nullptr) {
      sim_.final_map_version = final_map->version;
      sim_.final_map_digest = Fnv1a(shardman::SerializeShardMap(*final_map));
    }
    CheckClientClosure();
    if (checker_ != nullptr) {
      checker_->CheckNow();
      if (!checker_->ok()) {
        result_.check_failures.push_back("invariant checker: " + checker_->Report());
      }
    }
    result_.sim = sim_;
    CollectLayers();
    result_.latencies = std::move(latencies_);
  }

  void CollectLayers() {
    const Baseline now = TakeBaseline();
    shardman::obs::MetricsRegistry& reg = shardman::obs::DefaultMetrics();
    const shardman::obs::MetricsSnapshot snap = reg.Snapshot();
    auto counter = [&snap](const char* name) {
      return static_cast<double>(snap.CounterValue(name));
    };
    auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
    std::map<std::string, double>& L = result_.layers;
    for (const LayerMetricDef& def : LayerMetricDefs()) {
      L[def.name] = 0.0;
    }

    // Span-derived numbers (traced run only).
    double run_self_ns = 0.0;
    std::vector<int64_t> route_ns;
    double tick_ns = 0.0;
    int64_t ticks = 0;
    double diff_ns = 0.0;
    double apply_ns = 0.0;
    if (spans_ != nullptr) {
      const auto& spans = spans_->spans();
      for (size_t i = measure_first_span_; i < measure_last_span_; ++i) {
        const SpanRecorder::Span& s = spans[i];
        const std::string name = s.name;
        if (name == "sim.ShardedSimulator::RunUntil") {
          run_self_ns += static_cast<double>(s.self_ns());
        } else if (name == "routing.ServiceRouter::Route") {
          route_ns.push_back(s.duration_ns());
        } else if (name == "core.SplitMergePlanner::Tick") {
          tick_ns += static_cast<double>(s.duration_ns());
          ++ticks;
        } else if (name == "discovery.DiffShardMaps") {
          diff_ns += static_cast<double>(s.duration_ns());
        } else if (name == "discovery.ApplyShardMapDelta") {
          apply_ns += static_cast<double>(s.duration_ns());
        }
      }
    }
    const double events = static_cast<double>(now.events - base_.events) -
                          static_cast<double>(now.bench_events - base_.bench_events);
    L["sim.events"] = events;
    L["sim.ns_per_event"] = ratio(result_.measure_wall_s * 1e9, events);
    L["sim.cross_shard_messages"] = static_cast<double>(now.cross_shard - base_.cross_shard);
    L["sim.self_ms"] = run_self_ns / 1e6;
    L["net.messages"] = static_cast<double>(now.net_sent - base_.net_sent);
    L["net.dropped"] = static_cast<double>(now.net_dropped - base_.net_dropped);

    if (!route_ns.empty()) {
      std::sort(route_ns.begin(), route_ns.end());
      L["routing.route_ns_p50"] = static_cast<double>(route_ns[RankIndex(route_ns.size(), 0.5)]);
      L["routing.route_ns_p99"] = static_cast<double>(route_ns[RankIndex(route_ns.size(), 0.99)]);
    }
    L["routing.attempts_per_request"] =
        ratio(static_cast<double>(sim_.attempts), static_cast<double>(completed_));
    L["routing.cache_rebuilds"] = static_cast<double>(now.rebuilds - base_.rebuilds);
    L["routing.cache_patches"] = static_cast<double>(now.patches - base_.patches);

    const double served = static_cast<double>(now.served - base_.served);
    const double shed = static_cast<double>(now.shed - base_.shed);
    L["apps.served"] = served;
    L["apps.shed_ratio"] = ratio(shed, served + shed);
    L["apps.forwarded"] = static_cast<double>(now.forwarded - base_.forwarded);
    L["apps.rejected"] = static_cast<double>(now.rejected - base_.rejected);

    L["discovery.publishes"] = static_cast<double>(now.publishes - base_.publishes);
    L["discovery.rows_per_map"] =
        last_map_ != nullptr ? static_cast<double>(last_map_->entries.size()) : 0.0;
    L["discovery.changed_rows_per_publish"] =
        ratio(static_cast<double>(replayed_rows_), static_cast<double>(version_steps_));
    L["discovery.delta_ratio"] = ratio(static_cast<double>(now.delta_deliveries -
                                                           base_.delta_deliveries),
                                       counter("sm.discovery.deliveries"));
    if (const shardman::obs::MetricSample* s = snap.Find("sm.discovery.staleness_ms")) {
      L["discovery.staleness_ms_p99"] = s->p99;
    }
    L["discovery.diff_us_per_publish"] = ratio(diff_ns / 1e3, static_cast<double>(replayed_));
    L["discovery.apply_us_per_delta"] = ratio(apply_ns / 1e3, static_cast<double>(replayed_));

    L["core.ops_started"] = counter("sm.orchestrator.ops_started");
    L["core.ops_failed"] = counter("sm.orchestrator.ops_failed");
    L["core.ops_retried"] = counter("sm.orchestrator.ops_retried");
    L["core.map_publishes"] = counter("sm.orchestrator.map_publishes");
    L["core.splits"] = counter("sm.hotspot.splits");
    L["core.merges"] = counter("sm.hotspot.merges");
    L["core.planner_tick_us"] = ratio(tick_ns / 1e3, static_cast<double>(ticks));

    L["coord.writes"] = static_cast<double>(coord_writes_);
    L["coord.bytes_written"] = static_cast<double>(coord_bytes_);

    L["solver.solves"] = counter("sm.solver.solves");
    L["solver.evaluations"] = counter("sm.solver.evaluations");
    if (const shardman::obs::MetricSample* s = snap.Find("sm.solver.wall_ms")) {
      L["solver.wall_ms_total"] = s->hist_sum;
    }
    L["solver.wall_ms_max"] = solver_wall_max_ms_;
    L["solver.dirty_entities"] = counter("sm.solver.dirty_entities");
    L["solver.warm_start_reuse"] = counter("sm.solver.warm_start_reuse");

    if (const shardman::ControlPlaneReplicaSet* rs = bed_->replica_set()) {
      L["smr.failovers"] = static_cast<double>(rs->failovers() - base_.smr_failovers);
      TimeMicros gap_max = 0;
      const auto& gaps = rs->leaderless_gaps();
      for (size_t i = base_.smr_gaps; i < gaps.size(); ++i) {
        gap_max = std::max(gap_max, gaps[i]);
      }
      L["smr.leaderless_max_ms"] = shardman::ToMillis(gap_max);
    }
    L["smr.reconciled_ops"] = counter("sm.smr.reconciled_ops");
    L["smr.publishes_fenced"] = counter("sm.smr.publishes_fenced");
  }

  const WorkloadConfig& config_;
  uint64_t seed_;
  SpanRecorder* spans_;
  Rng rng_;  // fault schedule and victims

  // Declared first so it is destroyed last: everything below holds pointers into it.
  std::unique_ptr<Testbed> bed_;
  std::vector<std::unique_ptr<ServiceRouter>> routers_;
  std::unique_ptr<SplitMergePlanner> planner_;
  std::unique_ptr<InvariantChecker> checker_;
  std::vector<std::unique_ptr<Generator>> generators_;
  TimeMicros window_ = 0;
  TimeMicros measure_begin_ = 0;
  TimeMicros measure_end_ = 0;

  SimMetrics sim_;
  int64_t completed_ = 0;
  std::vector<uint32_t> latencies_;
  std::vector<Fault> faults_;
  std::map<int32_t, TimeMicros> reconnect_at_;

  shardman::obs::HistogramMetric* solver_wall_ = nullptr;
  shardman::obs::Counter* allocs_emergency_ = nullptr;
  double last_solver_sum_ = 0.0;
  int64_t last_emergency_ = 0;
  double solver_wall_max_ms_ = 0.0;
  int64_t observer_ticks_ = 0;
  int64_t checker_events_ = 0;

  std::shared_ptr<const ShardMap> last_map_;
  int64_t replayed_ = 0;
  int64_t replayed_rows_ = 0;
  int64_t version_steps_ = 0;
  int64_t coord_writes_ = 0;
  int64_t coord_bytes_ = 0;

  Baseline base_;
  size_t measure_first_span_ = 0;
  size_t measure_last_span_ = 0;
  ReplicateResult result_;
};

}  // namespace

bool MakeWorkload(const std::string& name, WorkloadConfig* out) {
  if (name == "flash_crowd") {
    *out = FlashCrowd();
  } else if (name == "fleet_churn") {
    *out = FleetChurn();
  } else if (name == "region_failover") {
    *out = RegionFailover();
  } else if (name == "fleet_churn_cold") {
    // Defect reproduction: with a 5 s warm-up the session expiry 15 s into the measured phase
    // lands in the first periodic rebalance's primary migrations.
    *out = FleetChurn();
    out->name = name;
    out->warmup = Seconds(5);
  } else if (name == "region_failover_kill_in_placement") {
    // Defect reproduction: the leader dies while the failed region's replicas are re-placed
    // (failover_grace 10 s + 0.6 s).
    *out = RegionFailover();
    out->name = name;
    out->leader_kill_after = Millis(10600);
  } else {
    return false;
  }
  return true;
}

std::string SimMetrics::Json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"due\":" << due << ",\"ok\":" << ok << ",\"ok_within_slo\":" << ok_within_slo
     << ",\"failed\":" << failed << ",\"lost\":" << lost << ",\"attempts\":" << attempts
     << ",\"samples\":" << samples << ",\"beyond_p999\":" << beyond_p999
     << ",\"goodput_ratio\":" << goodput_ratio() << ",\"failed_ratio\":" << failed_ratio()
     << ",\"latency_p50_ms\":" << p50_ms << ",\"latency_p99_ms\":" << p99_ms
     << ",\"latency_p999_ms\":" << p999_ms << ",\"faults\":" << faults
     << ",\"unhealed_faults\":" << unhealed_faults << ",\"failover_ms\":" << failover_ms
     << ",\"final_map_version\":" << final_map_version << ",\"final_map_digest\":\""
     << std::hex << final_map_digest << std::dec << "\"}";
  return os.str();
}

void SimPool::Add(const ReplicateResult& replicate) {
  const SimMetrics& r = replicate.sim;
  sum_.due += r.due;
  sum_.ok += r.ok;
  sum_.ok_within_slo += r.ok_within_slo;
  sum_.failed += r.failed;
  sum_.lost += r.lost;
  sum_.attempts += r.attempts;
  sum_.faults += r.faults;
  sum_.unhealed_faults += r.unhealed_faults;
  sum_.failover_ms = std::max(sum_.failover_ms, r.failover_ms);
  sum_.final_map_version += r.final_map_version;
  uint64_t h = sum_.final_map_digest == 0 ? 0xCBF29CE484222325ULL : sum_.final_map_digest;
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((r.final_map_digest >> (8 * i)) & 0xFF)) * 0x100000001B3ULL;
  }
  sum_.final_map_digest = h;
  for (TimeMicros latency : replicate.latencies) {
    if (latency < kBins) {
      ++bins_[static_cast<size_t>(latency)];
    } else {
      overflow_.push_back(latency);
    }
  }
  std::sort(overflow_.begin(), overflow_.end());
  sum_.samples += static_cast<int64_t>(replicate.latencies.size());
}

TimeMicros SimPool::ValueAtRank(int64_t rank) const {
  int64_t seen = 0;
  for (size_t us = 0; us < bins_.size(); ++us) {
    seen += bins_[us];
    if (seen > rank) {
      return static_cast<TimeMicros>(us);
    }
  }
  return overflow_[static_cast<size_t>(rank - seen)];
}

SimMetrics SimPool::Result() const {
  SimMetrics m = sum_;
  if (m.samples > 0) {
    const auto n = static_cast<size_t>(m.samples);
    m.p50_ms = shardman::ToMillis(ValueAtRank(static_cast<int64_t>(RankIndex(n, 0.50))));
    m.p99_ms = shardman::ToMillis(ValueAtRank(static_cast<int64_t>(RankIndex(n, 0.99))));
    const size_t i999 = RankIndex(n, 0.999);
    m.p999_ms = shardman::ToMillis(ValueAtRank(static_cast<int64_t>(i999)));
    m.beyond_p999 = static_cast<int64_t>(n - 1 - i999);
  }
  return m;
}

const std::vector<LayerMetricDef>& LayerMetricDefs() {
  static const std::vector<LayerMetricDef> defs = {
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.cross_shard_messages", "count"},
      {"sim.self_ms", "ms"},
      {"net.messages", "count"},
      {"net.dropped", "count"},
      {"routing.route_ns_p50", "ns"},
      {"routing.route_ns_p99", "ns"},
      {"routing.attempts_per_request", "ratio"},
      {"routing.cache_rebuilds", "count"},
      {"routing.cache_patches", "count"},
      {"apps.served", "count"},
      {"apps.shed_ratio", "ratio"},
      {"apps.forwarded", "count"},
      {"apps.rejected", "count"},
      {"discovery.publishes", "count"},
      {"discovery.rows_per_map", "count"},
      {"discovery.changed_rows_per_publish", "count"},
      {"discovery.delta_ratio", "ratio"},
      {"discovery.staleness_ms_p99", "ms"},
      {"discovery.diff_us_per_publish", "us"},
      {"discovery.apply_us_per_delta", "us"},
      {"core.ops_started", "count"},
      {"core.ops_failed", "count"},
      {"core.ops_retried", "count"},
      {"core.map_publishes", "count"},
      {"core.splits", "count"},
      {"core.merges", "count"},
      {"core.planner_tick_us", "us"},
      {"coord.writes", "count"},
      {"coord.bytes_written", "bytes"},
      {"solver.solves", "count"},
      {"solver.evaluations", "count"},
      {"solver.wall_ms_total", "ms"},
      {"solver.wall_ms_max", "ms"},
      {"solver.dirty_entities", "count"},
      {"solver.warm_start_reuse", "count"},
      {"smr.failovers", "count"},
      {"smr.leaderless_max_ms", "ms"},
      {"smr.reconciled_ops", "count"},
      {"smr.publishes_fenced", "count"},
  };
  return defs;
}

ReplicateResult RunReplicate(const WorkloadConfig& config, uint64_t seed, SpanRecorder* spans) {
  Scenario scenario(config, seed, spans);
  return scenario.Run();
}

}  // namespace perfbench
