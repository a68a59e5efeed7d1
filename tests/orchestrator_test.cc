// Orchestrator tests on the full simulated stack: initial placement, failover, drain, graceful
// migration, promotion, shard scaling, placement-preference updates and the persisted
// per-server assignment record.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>

#include "src/core/control_plane.h"
#include "src/workload/testbed.h"

namespace shardman {
namespace {

TestbedConfig SmallConfig(ReplicationStrategy strategy, int replication, int shards = 12,
                          int regions = 1, int servers_per_region = 4) {
  TestbedConfig config;
  config.regions.clear();
  for (int r = 0; r < regions; ++r) {
    config.regions.push_back("region" + std::to_string(r));
  }
  config.servers_per_region = servers_per_region;
  config.app = MakeUniformAppSpec(AppId(1), "testapp", shards, strategy, replication);
  config.app.placement.metrics = MetricSet({"cpu"});
  config.seed = 99;
  return config;
}

TEST(OrchestratorTest, InitialPlacementReachesAllReady) {
  Testbed bed(SmallConfig(ReplicationStrategy::kPrimaryOnly, 1));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));
  Orchestrator& orch = bed.orchestrator();
  // Every shard is bound to a live server and published.
  const ShardMap* map = bed.discovery().Current(AppId(1));
  ASSERT_NE(map, nullptr);
  ASSERT_EQ(map->entries.size(), 12u);
  for (const ShardMapEntry& entry : map->entries) {
    ASSERT_EQ(entry.replicas.size(), 1u);
    EXPECT_EQ(entry.replicas[0].role, ReplicaRole::kPrimary);
    EXPECT_TRUE(bed.registry().IsAlive(entry.replicas[0].server));
  }
  EXPECT_GE(orch.published_versions(), 1);
}

TEST(OrchestratorTest, AppServersActuallyHostTheirShards) {
  Testbed bed(SmallConfig(ReplicationStrategy::kPrimaryOnly, 1));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));
  for (int s = 0; s < bed.spec().num_shards(); ++s) {
    ServerId server = bed.orchestrator().replica_server(ShardId(s), 0);
    ASSERT_TRUE(server.valid());
    ShardHostBase* app = bed.app_server(server);
    ASSERT_NE(app, nullptr);
    EXPECT_TRUE(app->Serving(ShardId(s)));
  }
}

TEST(OrchestratorTest, UnplannedFailureTriggersFailover) {
  Testbed bed(SmallConfig(ReplicationStrategy::kPrimaryOnly, 1));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));

  ServerId victim = bed.servers().front();
  ContainerId container(victim.value);
  // Find shards on the victim before killing it.
  auto replicas_before = bed.orchestrator().ReplicasOn(victim);
  ASSERT_FALSE(replicas_before.empty());

  bed.cluster_manager(RegionId(0)).FailContainer(container, /*downtime=*/-1);  // stays down
  // After the failover grace, shards must be reassigned and ready elsewhere.
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(3)));
  for (const auto& [shard, role] : replicas_before) {
    ServerId now = bed.orchestrator().replica_server(shard, 0);
    EXPECT_NE(now, victim);
    EXPECT_TRUE(bed.registry().IsAlive(now));
  }
  EXPECT_TRUE(bed.orchestrator().ReplicasOn(victim).empty());
}

TEST(OrchestratorTest, PlannedRestartWithoutDrainKeepsAssignment) {
  TestbedConfig config = SmallConfig(ReplicationStrategy::kPrimaryOnly, 1);
  config.app.drain.drain_primaries = false;  // tolerate the downtime (Fig 8 "no drain")
  config.mini_sm.orchestrator.planned_restart_patience = Minutes(3);
  Testbed bed(config);
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));

  ServerId victim = bed.servers().front();
  auto replicas_before = bed.orchestrator().ReplicasOn(victim);
  ASSERT_FALSE(replicas_before.empty());
  int64_t moves_before = bed.orchestrator().completed_moves();

  bed.cluster_manager(RegionId(0))
      .StartRollingUpgrade(AppId(1), /*max_concurrent=*/1, /*restart_downtime=*/Seconds(20));
  bed.sim().RunFor(Minutes(4));
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));

  // Shards stayed put: restarting servers reloaded their assignment from the coordination
  // store; no migration happened.
  auto replicas_after = bed.orchestrator().ReplicasOn(victim);
  EXPECT_EQ(replicas_after.size(), replicas_before.size());
  EXPECT_EQ(bed.orchestrator().completed_moves(), moves_before);
  // And the server really is serving them again (restored via SmLibrary).
  ShardHostBase* app = bed.app_server(victim);
  for (const auto& [shard, role] : replicas_after) {
    EXPECT_TRUE(app->Serving(shard));
  }
}

TEST(OrchestratorTest, DrainMovesReplicasOffAndSignalsDone) {
  Testbed bed(SmallConfig(ReplicationStrategy::kPrimaryOnly, 1));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));

  ServerId victim = bed.servers().front();
  ASSERT_FALSE(bed.orchestrator().ReplicasOn(victim).empty());
  bool drained = false;
  bed.orchestrator().DrainServer(victim, /*drain_primaries=*/true, /*drain_secondaries=*/true,
                                 [&]() { drained = true; });
  bed.sim().RunFor(Minutes(2));
  EXPECT_TRUE(drained);
  EXPECT_TRUE(bed.orchestrator().ReplicasOn(victim).empty());
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(1)));
  // The drained server hosts nothing.
  EXPECT_EQ(bed.app_server(victim)->HostedShardCount(), 0);
}

TEST(OrchestratorTest, GracefulMigrationKeepsSingleWriterInvariant) {
  Testbed bed(SmallConfig(ReplicationStrategy::kPrimaryOnly, 1, /*shards=*/6));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));

  ServerId victim = bed.servers().front();
  bed.orchestrator().DrainServer(victim, true, true, []() {});

  // While draining, sample the single-writer invariant at every simulation step boundary:
  // for each shard, at most one server accepts direct writes.
  for (int step = 0; step < 1200; ++step) {
    bed.sim().RunFor(Millis(100));
    for (int s = 0; s < bed.spec().num_shards(); ++s) {
      int writers = 0;
      for (ServerId id : bed.servers()) {
        if (bed.app_server(id)->AcceptsDirectWrites(ShardId(s))) {
          ++writers;
        }
      }
      ASSERT_LE(writers, 1) << "two servers accept direct writes for shard " << s;
    }
    if (bed.orchestrator().ReplicasOn(victim).empty() && bed.orchestrator().AllReady()) {
      break;
    }
  }
  EXPECT_GT(bed.orchestrator().graceful_migrations(), 0);
  EXPECT_EQ(bed.orchestrator().abrupt_migrations(), 0);
}

TEST(OrchestratorTest, PrimarySecondaryPromotesSurvivorOnFailure) {
  Testbed bed(SmallConfig(ReplicationStrategy::kPrimarySecondary, 3, /*shards=*/6,
                          /*regions=*/1, /*servers_per_region=*/6));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(3)));

  // Kill the server hosting shard 0's primary.
  ServerId primary_server = bed.orchestrator().replica_server(ShardId(0), 0);
  ASSERT_TRUE(primary_server.valid());
  bed.cluster_manager(RegionId(0)).FailContainer(ContainerId(primary_server.value), -1);
  bed.sim().RunFor(Seconds(30));

  // Some replica of shard 0 must now be primary on a live server.
  int primaries = 0;
  for (int r = 0; r < bed.orchestrator().ReplicaCount(ShardId(0)); ++r) {
    if (bed.orchestrator().replica_role(ShardId(0), r) == ReplicaRole::kPrimary) {
      ++primaries;
      ServerId server = bed.orchestrator().replica_server(ShardId(0), r);
      EXPECT_TRUE(bed.registry().IsAlive(server));
    }
  }
  EXPECT_EQ(primaries, 1);
  // And after recovery the shard is fully re-replicated.
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(3)));
}

TEST(OrchestratorTest, ShardScalingAddsAndRemovesReplicas) {
  Testbed bed(SmallConfig(ReplicationStrategy::kPrimarySecondary, 2, /*shards=*/4,
                          /*regions=*/1, /*servers_per_region=*/6));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));
  Orchestrator& orch = bed.orchestrator();
  EXPECT_EQ(orch.ReplicaCount(ShardId(0)), 2);
  ASSERT_TRUE(orch.AddReplica(ShardId(0)).ok());
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));
  EXPECT_EQ(orch.ReplicaCount(ShardId(0)), 3);
  ASSERT_TRUE(orch.RemoveReplica(ShardId(0)).ok());
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));
  EXPECT_EQ(orch.ReplicaCount(ShardId(0)), 2);
  // Primary-only apps refuse scaling.
  Testbed bed2(SmallConfig(ReplicationStrategy::kPrimaryOnly, 1));
  bed2.Start();
  ASSERT_TRUE(bed2.RunUntilAllReady(Minutes(2)));
  EXPECT_EQ(bed2.orchestrator().AddReplica(ShardId(0)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(OrchestratorTest, RegionPreferenceUpdateMovesShard) {
  Testbed bed(SmallConfig(ReplicationStrategy::kPrimaryOnly, 1, /*shards=*/8, /*regions=*/2,
                          /*servers_per_region=*/4));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));

  // Pin every shard to region 1 and wait for periodic allocation to act (Fig 20 mechanics).
  for (int s = 0; s < bed.spec().num_shards(); ++s) {
    bed.orchestrator().SetRegionPreference(ShardId(s), RegionId(1), 1.0, 1);
  }
  bed.sim().RunFor(Minutes(5));
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));
  for (int s = 0; s < bed.spec().num_shards(); ++s) {
    ServerId server = bed.orchestrator().replica_server(ShardId(s), 0);
    EXPECT_EQ(bed.region_of(server), RegionId(1)) << "shard " << s;
  }
}

// Regression: a rebalancing plan may move a shard's primary onto a server whose secondary of
// the same shard is moving away in the same plan. Ops must be sequenced so the two replicas are
// never transiently co-located — the server API is shard-keyed, so the sibling's DropShard
// would otherwise destroy the newly arrived replica and leave the orchestrator's view
// diverged from the servers'.
TEST(OrchestratorTest, NoDivergenceAfterMultiReplicaRebalancing) {
  TestbedConfig config = SmallConfig(ReplicationStrategy::kPrimarySecondary, 3, /*shards=*/24,
                                     /*regions=*/3, /*servers_per_region=*/6);
  config.mini_sm.orchestrator.periodic_alloc_interval = Seconds(20);
  Testbed bed(config);
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(3)));
  bed.sim().RunFor(Minutes(2));  // several periodic allocations with multi-replica plans
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(3)));
  for (int s = 0; s < bed.spec().num_shards(); ++s) {
    for (int r = 0; r < bed.orchestrator().ReplicaCount(ShardId(s)); ++r) {
      if (bed.orchestrator().replica_phase(ShardId(s), r) != ReplicaPhase::kReady) {
        continue;
      }
      ServerId server = bed.orchestrator().replica_server(ShardId(s), r);
      ASSERT_TRUE(server.valid());
      ShardHostBase* app = bed.app_server(server);
      ASSERT_NE(app, nullptr);
      EXPECT_TRUE(app->Serving(ShardId(s)))
          << "orchestrator thinks server " << server.value << " serves shard " << s
          << " but the server disagrees";
    }
  }
}

TEST(OrchestratorTest, MapExcludesPendingReplicas) {
  Testbed bed(SmallConfig(ReplicationStrategy::kPrimaryOnly, 1));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));
  ServerId victim = bed.servers().front();
  auto on_victim = bed.orchestrator().ReplicasOn(victim);
  bed.cluster_manager(RegionId(0)).FailContainer(ContainerId(victim.value), -1);
  // Run past the grace period so replicas unbind, then check the map before re-placement
  // completes or after: either way no entry may point at an invalid server id.
  bed.sim().RunFor(Seconds(11));
  const ShardMap* map = bed.discovery().Current(AppId(1));
  ASSERT_NE(map, nullptr);
  for (const ShardMapEntry& entry : map->entries) {
    for (const ShardMapReplica& replica : entry.replicas) {
      EXPECT_TRUE(replica.server.valid());
    }
  }
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));
}

// The per-server record "<shard>:<replica>:<p|s>;..." in the orchestrator's per-server
// iteration order, built with the stream formatting the record was first written with.
// ReplicasOn walks the same per-server set, so the order matches the orchestrator's own.
std::string StreamFormattedAssignment(const Orchestrator& orch, ServerId server) {
  std::ostringstream os;
  for (const auto& [shard, role] : orch.ReplicasOn(server)) {
    int replica = -1;
    for (int r = 0; r < orch.ReplicaCount(shard); ++r) {
      if (orch.replica_server(shard, r) == server) {
        replica = r;
      }
    }
    os << shard.value << ":" << replica << ":" << (role == ReplicaRole::kPrimary ? "p" : "s")
       << ";";
  }
  return os.str();
}

TEST(OrchestratorTest, AssignmentRecordIsByteStableAndRestoredByRecovery) {
  TestbedConfig config = SmallConfig(ReplicationStrategy::kPrimarySecondary, 3, /*shards=*/12,
                                     /*regions=*/1, /*servers_per_region=*/4);
  config.smr_control_plane = true;
  config.smr.replica_regions = {RegionId(0), RegionId(0)};  // leader plus a standby
  Testbed bed(config);
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(3)));
  bed.sim().RunFor(Seconds(10));  // quiesce: no op in flight moves a replica under the snapshot
  ASSERT_EQ(bed.orchestrator().pending_ops(), 0);

  const Orchestrator& orch = bed.orchestrator();
  int primaries = 0;
  int secondaries = 0;
  std::map<int32_t, std::string> records;
  for (ServerId server : bed.servers()) {
    Result<std::string> value =
        bed.coord().Get("/sm/testapp/assign/" + std::to_string(server.value));
    ASSERT_TRUE(value.ok()) << "no record for server " << server.value;
    EXPECT_EQ(value.value(), StreamFormattedAssignment(orch, server))
        << "server " << server.value;
    for (const auto& entry : orch.ReplicasOn(server)) {
      ++(entry.second == ReplicaRole::kPrimary ? primaries : secondaries);
    }
    records[server.value] = value.value();
  }
  EXPECT_EQ(primaries, 12);
  EXPECT_EQ(secondaries, 24);

  std::vector<std::pair<ServerId, ReplicaRole>> before;
  for (int s = 0; s < orch.num_shards(); ++s) {
    for (int r = 0; r < orch.ReplicaCount(ShardId(s)); ++r) {
      before.emplace_back(orch.replica_server(ShardId(s), r), orch.replica_role(ShardId(s), r));
    }
  }

  // The standby's orchestrator rebuilds every binding and role from the records alone, then
  // re-persists each server's record in the same format. Stop as soon as it has taken over.
  bed.replica_set()->KillLeader();
  const TimeMicros deadline = bed.sim().Now() + Minutes(1);
  while (bed.replica_set()->failovers() == 0 && bed.sim().Now() < deadline) {
    bed.sim().RunFor(Millis(1));
  }
  ASSERT_EQ(bed.replica_set()->failovers(), 1);
  const Orchestrator& recovered = bed.orchestrator();
  size_t i = 0;
  for (int s = 0; s < recovered.num_shards(); ++s) {
    for (int r = 0; r < recovered.ReplicaCount(ShardId(s)); ++r, ++i) {
      ASSERT_LT(i, before.size());
      EXPECT_EQ(recovered.replica_server(ShardId(s), r), before[i].first) << s << ":" << r;
      EXPECT_EQ(recovered.replica_role(ShardId(s), r), before[i].second) << s << ":" << r;
    }
  }
  EXPECT_EQ(i, before.size());
  for (ServerId server : bed.servers()) {
    Result<std::string> value =
        bed.coord().Get("/sm/testapp/assign/" + std::to_string(server.value));
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(value.value(), StreamFormattedAssignment(recovered, server));
    EXPECT_EQ(value.value().size(), records[server.value].size());
  }
}

}  // namespace
}  // namespace shardman
