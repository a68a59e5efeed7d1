#include "src/workload/fleet_sim.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/common/check.h"
#include "src/obs/digest.h"
#include "src/obs/metrics.h"

namespace shardman {

namespace {

size_t Log2Bucket(TimeMicros micros, size_t buckets) {
  size_t b = 0;
  uint64_t v = micros <= 0 ? 0 : static_cast<uint64_t>(micros);
  while (v > 1 && b + 1 < buckets) {
    v >>= 1;
    ++b;
  }
  return b;
}

TimeMicros FleetLookahead(const FleetSimConfig& config, const LatencyModel& model,
                          const std::vector<int>& region_to_shard) {
  if (config.sim_shards <= 1) {
    return 1;  // unused by the single-shard fast path
  }
  const TimeMicros bound =
      Network::ShardedLookaheadBound(model, region_to_shard, config.jitter_fraction);
  SM_CHECK_GT(bound, 0);
  return bound;
}

std::vector<int> RegionToShard(const FleetSimConfig& config) {
  std::vector<int> map(static_cast<size_t>(config.num_regions));
  for (int r = 0; r < config.num_regions; ++r) {
    map[static_cast<size_t>(r)] = r % config.sim_shards;
  }
  return map;
}

}  // namespace

FleetSim::FleetSim(FleetSimConfig config)
    : config_(std::move(config)),
      sim_(config_.sim_shards, config_.sim_threads,
           FleetLookahead(config_, LatencyModel(config_.num_regions, config_.local_latency,
                                                config_.wide_latency),
                          RegionToShard(config_))) {
  // Route the global clock hook here (like Testbed does): flight/trace timestamps become
  // deterministic sim time. Shard events read their own engine's clock — thread-safe because
  // the committed barrier time is only consulted in the exclusive phase.
  prev_time_source_ = ExchangeSimTimeSource([this]() {
    const int shard = sim_.current_shard();
    return shard >= 0 ? sim_.shard(shard).Now() : sim_.Now();
  });
  SM_CHECK_GT(config_.num_regions, 0);
  SM_CHECK_GT(config_.servers_per_region, 0);
  SM_CHECK_GT(config_.clients_per_region, 0);
  SM_CHECK_GE(config_.sim_shards, 1);
  SM_CHECK_GT(config_.requests_per_second_per_client, 0.0);
  SM_CHECK_GE(config_.min_service_time, 0);
  SM_CHECK_LE(config_.min_service_time, config_.max_service_time);

  Rng setup_rng(config_.seed);
  LatencyModel model(config_.num_regions, config_.local_latency, config_.wide_latency);
  network_ = std::make_unique<Network>(&sim_.shard(0), model, setup_rng.Next());
  network_->set_jitter_fraction(config_.jitter_fraction);
  network_->EnableShardedMode(&sim_, RegionToShard(config_));

  regions_.reserve(static_cast<size_t>(config_.num_regions));
  for (int r = 0; r < config_.num_regions; ++r) {
    // Region RNGs forked in region order at setup: each is consumed only by that region's
    // events, which execute in deterministic order on the region's shard.
    auto st = std::make_unique<RegionState>(setup_rng.Next());
    st->servers.resize(static_cast<size_t>(config_.servers_per_region));
    regions_.push_back(std::move(st));
  }

  // Partition chaos, precomputed from the seed so the schedule is config-determined, applied
  // in the exclusive phase where topology mutation is legal.
  for (int i = 0; i < config_.chaos_partitions; ++i) {
    const TimeMicros at = config_.chaos_start + static_cast<TimeMicros>(i) * config_.chaos_interval;
    const int region =
        static_cast<int>(setup_rng.UniformInt(0, static_cast<int64_t>(config_.num_regions) - 1));
    sim_.ScheduleBarrierAt(at, [this, region]() {
      network_->PartitionRegion(RegionId(region));
    });
    sim_.ScheduleBarrierAt(at + config_.chaos_duration, [this, region]() {
      network_->HealRegion(RegionId(region));
    });
  }
}

FleetSim::~FleetSim() { ExchangeSimTimeSource(std::move(prev_time_source_)); }

uint32_t FleetSim::AcquireRequest(RegionState& st) {
  if (!st.free_slots.empty()) {
    uint32_t slot = st.free_slots.back();
    st.free_slots.pop_back();
    return slot;
  }
  st.requests.emplace_back();
  return static_cast<uint32_t>(st.requests.size() - 1);
}

void FleetSim::ReleaseRequest(RegionState& st, uint32_t slot) {
  Outstanding& req = st.requests[slot];
  ++req.generation;  // invalidates every closure still carrying the old (slot, generation)
  req.active = false;
  req.timeout = EventId{};
  req.hedge = CrossShardEventId{};
  st.free_slots.push_back(slot);
}

bool FleetSim::ValidRequest(const RegionState& st, uint32_t slot, uint32_t generation) const {
  return slot < st.requests.size() && st.requests[slot].active &&
         st.requests[slot].generation == generation;
}

void FleetSim::StartClients() {
  const auto period = static_cast<TimeMicros>(1e6 / config_.requests_per_second_per_client);
  SM_CHECK_GT(period, 0);
  for (int r = 0; r < config_.num_regions; ++r) {
    for (int c = 0; c < config_.clients_per_region; ++c) {
      // Staggered starts spread clients across the period so windows carry even load.
      const TimeMicros first =
          1 + (static_cast<TimeMicros>(c) * period) / config_.clients_per_region;
      engine(r).SchedulePeriodic(first, period, [this, r]() { SendRequest(r); });
    }
  }
}

void FleetSim::SendRequest(int region) {
  RegionState& st = *regions_[static_cast<size_t>(region)];
  ++st.issued;
  const bool remote = config_.num_regions > 1 && st.rng.Bernoulli(config_.remote_fraction);
  int target = region;
  if (remote) {
    ++st.remote_sent;
    target = static_cast<int>(
        st.rng.UniformInt(0, static_cast<int64_t>(config_.num_regions) - 2));
    if (target >= region) {
      ++target;
    }
  }
  const size_t key = st.rng.ZipfIndex(static_cast<size_t>(config_.keys_per_region), config_.zipf_s);
  const int server = static_cast<int>(key % static_cast<size_t>(config_.servers_per_region));

  const uint32_t slot = AcquireRequest(st);
  Outstanding& req = st.requests[slot];
  req.active = true;
  req.start = engine(region).Now();
  const uint32_t gen = req.generation;
  req.timeout = engine(region).Schedule(
      config_.request_timeout, [this, region, slot, gen]() { OnTimeout(region, slot, gen); });

  network_->Send(RegionId(region), RegionId(target),
                 [this, target, server, region, slot, gen]() {
                   OnServerRequest(target, server, region, slot, gen);
                 });

  if (remote && config_.num_regions > 2 && st.rng.Bernoulli(config_.hedge_fraction)) {
    // Hedge on a second region: delivered through the destination shard's mailbox after
    // hedge_delay plus one wide-area flight. A response that wins the race cancels this while
    // it is still in flight — the cross-shard Cancel path.
    ++st.hedged;
    int alt = static_cast<int>(
        st.rng.UniformInt(0, static_cast<int64_t>(config_.num_regions) - 3));
    for (int skip : {std::min(region, target), std::max(region, target)}) {
      if (alt >= skip) {
        ++alt;
      }
    }
    req.hedge = sim_.SendTracked(shard_of(alt), config_.hedge_delay + config_.wide_latency,
                                 [this, alt, server, region, slot, gen]() {
                                   OnServerRequest(alt, server, region, slot, gen);
                                 });
  }
}

void FleetSim::OnServerRequest(int region, int server, int client_region, uint32_t slot,
                               uint32_t generation) {
  RegionState& st = *regions_[static_cast<size_t>(region)];
  ServerState& srv = st.servers[static_cast<size_t>(server)];
  const TimeMicros now = engine(region).Now();
  const TimeMicros service =
      st.rng.UniformInt(config_.min_service_time, config_.max_service_time);
  const TimeMicros begin = std::max(now, srv.busy_until);  // FIFO per-server queue
  srv.busy_until = begin + service;
  ++srv.processed;
  engine(region).Schedule(srv.busy_until - now, [this, region, client_region, slot, generation]() {
    network_->Send(RegionId(region), RegionId(client_region),
                   [this, client_region, slot, generation]() {
                     OnResponse(client_region, slot, generation);
                   });
  });
}

void FleetSim::OnResponse(int region, uint32_t slot, uint32_t generation) {
  RegionState& st = *regions_[static_cast<size_t>(region)];
  if (!ValidRequest(st, slot, generation)) {
    return;  // timed out, or a duplicate/hedged response after the winner
  }
  Outstanding& req = st.requests[slot];
  ++st.completed;
  const TimeMicros latency = engine(region).Now() - req.start;
  st.latency_sum += static_cast<uint64_t>(latency);
  ++st.latency_log2[Log2Bucket(latency, kLatencyBuckets)];
  engine(region).Cancel(req.timeout);
  if (req.hedge.valid()) {
    ++st.hedge_cancelled;
    sim_.Cancel(req.hedge);  // stale (already delivered) cancels are deterministic no-ops
  }
  ReleaseRequest(st, slot);
}

void FleetSim::OnTimeout(int region, uint32_t slot, uint32_t generation) {
  RegionState& st = *regions_[static_cast<size_t>(region)];
  if (!ValidRequest(st, slot, generation)) {
    return;
  }
  Outstanding& req = st.requests[slot];
  ++st.timed_out;
  if (req.hedge.valid()) {
    sim_.Cancel(req.hedge);
  }
  ReleaseRequest(st, slot);
}

void FleetSim::Run(TimeMicros duration) {
  if (!started_) {
    started_ = true;
    StartClients();
  }
  sim_.RunFor(duration);
}

FleetTotals FleetSim::Totals() const {
  FleetTotals t;
  for (const auto& st : regions_) {
    t.issued += st->issued;
    t.completed += st->completed;
    t.timed_out += st->timed_out;
    t.remote_sent += st->remote_sent;
    t.hedged += st->hedged;
    t.hedge_cancelled += st->hedge_cancelled;
  }
  t.net_sent = network_->messages_sent();
  t.net_dropped = network_->messages_dropped();
  uint64_t latency_sum = 0;
  for (const auto& st : regions_) {
    latency_sum += st->latency_sum;
  }
  t.mean_latency_ms =
      t.completed > 0
          ? static_cast<double>(latency_sum) / static_cast<double>(t.completed) / 1000.0
          : 0.0;
  return t;
}

uint64_t FleetSim::StateDigest() const {
  uint64_t h = obs::kFnvOffset;
  obs::FnvMix(h, static_cast<uint64_t>(config_.num_regions));
  obs::FnvMix(h, static_cast<uint64_t>(config_.sim_shards));
  obs::FnvMix(h, static_cast<uint64_t>(sim_.Now()));
  for (const auto& st : regions_) {
    obs::FnvMix(h, st->issued);
    obs::FnvMix(h, st->completed);
    obs::FnvMix(h, st->timed_out);
    obs::FnvMix(h, st->remote_sent);
    obs::FnvMix(h, st->hedged);
    obs::FnvMix(h, st->hedge_cancelled);
    obs::FnvMix(h, st->latency_sum);
    for (uint64_t bucket : st->latency_log2) {
      obs::FnvMix(h, bucket);
    }
    for (const ServerState& srv : st->servers) {
      obs::FnvMix(h, srv.processed);
      obs::FnvMix(h, static_cast<uint64_t>(srv.busy_until));
    }
    obs::FnvMix(h, static_cast<uint64_t>(st->requests.size()));
    obs::FnvMix(h, static_cast<uint64_t>(st->free_slots.size()));
  }
  obs::FnvMix(h, network_->messages_sent());
  obs::FnvMix(h, network_->messages_dropped());
  obs::FnvMix(h, network_->messages_duplicated());
  for (int r = 0; r < config_.num_regions; ++r) {
    const RegionNetStats& s = network_->region_stats(RegionId(r));
    obs::FnvMix(h, s.sent);
    obs::FnvMix(h, s.delivered_in);
    obs::FnvMix(h, s.dropped_out);
    obs::FnvMix(h, s.dropped_in);
    obs::FnvMix(h, s.duplicated);
  }
  for (int i = 0; i < sim_.num_shards(); ++i) {
    obs::FnvMix(h, sim_.ExecutedEventsOnShard(i));
  }
  obs::FnvMix(h, sim_.cross_shard_messages());
  obs::FnvMix(h, sim_.cross_shard_cancels());
  return h;
}

std::string FleetSim::DigestReport() const {
  std::ostringstream os;
  os << "now=" << sim_.Now() << " windows=" << sim_.windows_run()
     << " xmsgs=" << sim_.cross_shard_messages() << " xcancels=" << sim_.cross_shard_cancels()
     << "\n";
  for (int r = 0; r < config_.num_regions; ++r) {
    const RegionState& st = *regions_[static_cast<size_t>(r)];
    uint64_t processed = 0;
    for (const ServerState& srv : st.servers) {
      processed += srv.processed;
    }
    os << "region " << r << ": issued=" << st.issued << " completed=" << st.completed
       << " timed_out=" << st.timed_out << " remote=" << st.remote_sent
       << " hedged=" << st.hedged << " hedge_cancelled=" << st.hedge_cancelled
       << " latency_sum=" << st.latency_sum << " processed=" << processed << "\n";
  }
  os << "net sent=" << network_->messages_sent() << " dropped=" << network_->messages_dropped()
     << " duplicated=" << network_->messages_duplicated() << "\n";
  for (int i = 0; i < sim_.num_shards(); ++i) {
    os << "shard " << i << ": executed=" << sim_.ExecutedEventsOnShard(i) << "\n";
  }
  os << "digest=" << StateDigest() << "\n";
  return os.str();
}

void FleetSim::ExportMetrics() const {
  obs::MetricsRegistry& reg = obs::DefaultMetrics();
  const FleetTotals t = Totals();
  reg.GetGauge("sm.fleet.issued")->Set(static_cast<double>(t.issued));
  reg.GetGauge("sm.fleet.completed")->Set(static_cast<double>(t.completed));
  reg.GetGauge("sm.fleet.timed_out")->Set(static_cast<double>(t.timed_out));
  reg.GetGauge("sm.fleet.remote_sent")->Set(static_cast<double>(t.remote_sent));
  reg.GetGauge("sm.fleet.hedged")->Set(static_cast<double>(t.hedged));
  reg.GetGauge("sm.fleet.hedge_cancelled")->Set(static_cast<double>(t.hedge_cancelled));
  reg.GetGauge("sm.fleet.net_sent")->Set(static_cast<double>(t.net_sent));
  reg.GetGauge("sm.fleet.net_dropped")->Set(static_cast<double>(t.net_dropped));
  reg.GetGauge("sm.fleet.mean_latency_ms")->Set(t.mean_latency_ms);
  // The 64-bit digest split into exactly representable 32-bit halves.
  const uint64_t digest = StateDigest();
  reg.GetGauge("sm.fleet.digest_hi")->Set(static_cast<double>(digest >> 32));
  reg.GetGauge("sm.fleet.digest_lo")->Set(static_cast<double>(digest & 0xFFFFFFFFULL));
}

}  // namespace shardman
