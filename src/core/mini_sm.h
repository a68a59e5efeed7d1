// MiniSm: one shard-managing control-plane unit (§6.1).
//
// SM's control plane is itself sharded: each mini-SM owns an orchestrator + allocator +
// TaskController for the partitions assigned to it, and registers with every regional cluster
// manager hosting those partitions' servers. This class wires those pieces together for one
// application partition. It runs a single orchestrator for its whole life; control-plane
// failover (§6.2) is the replicated control plane's leader hand-off (src/smr/replica_set.h).

#ifndef SRC_CORE_MINI_SM_H_
#define SRC_CORE_MINI_SM_H_

#include <vector>

#include "src/allocator/allocator.h"
#include "src/cluster/cluster_manager.h"
#include "src/coord/coord_store.h"
#include "src/core/orchestrator.h"
#include "src/core/task_controller.h"
#include "src/discovery/service_discovery.h"

namespace shardman {

struct MiniSmConfig {
  OrchestratorConfig orchestrator;
  AllocatorOptions allocator;
  // The Fig. 17 "no TaskController" ablation disables this: container operations then execute
  // without negotiation, bounded only by the cluster manager's own parallelism limit.
  bool register_task_controller = true;
};

class MiniSm {
 public:
  // `cluster_managers` are all regional CMs hosting this app's containers (one for a regional
  // deployment, several for a geo-distributed one). Registers the TaskController with each.
  MiniSm(Simulator* sim, Network* network, CoordStore* coord, ServiceDiscovery* discovery,
         ServerRegistry* registry, std::vector<ClusterManager*> cluster_managers, AppSpec spec,
         RegionId home_region, MiniSmConfig config);

  // Registers lifecycle listeners with every cluster manager and starts the orchestrator
  // (initial placement + timers). Application-server glue listeners must already be registered
  // on the cluster managers so servers restore state before SM reacts.
  void Start();

  Orchestrator& orchestrator() { return orchestrator_; }
  const Orchestrator& orchestrator() const { return orchestrator_; }
  SmTaskController* task_controller() { return &task_controller_; }
  SmAllocator& allocator() { return allocator_; }
  const AppSpec& spec() const { return orchestrator_.spec(); }

 private:
  ServerRegistry* registry_;
  std::vector<ClusterManager*> cluster_managers_;
  SmAllocator allocator_;
  Orchestrator orchestrator_;
  SmTaskController task_controller_;
};

}  // namespace shardman

#endif  // SRC_CORE_MINI_SM_H_
