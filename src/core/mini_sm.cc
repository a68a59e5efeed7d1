#include "src/core/mini_sm.h"

#include <utility>

namespace shardman {

MiniSm::MiniSm(Simulator* sim, Network* network, CoordStore* coord, ServiceDiscovery* discovery,
               ServerRegistry* registry, std::vector<ClusterManager*> cluster_managers,
               AppSpec spec, RegionId home_region, MiniSmConfig config)
    : registry_(registry),
      cluster_managers_(std::move(cluster_managers)),
      allocator_(config.allocator),
      orchestrator_(sim, network, coord, discovery, registry, &allocator_, std::move(spec),
                    home_region, config.orchestrator),
      task_controller_(sim, &orchestrator_, registry, orchestrator_.spec()) {
  task_controller_.AttachClusterManagers(cluster_managers_, config.register_task_controller);
}

void MiniSm::Start() {
  const AppId app = orchestrator_.spec().id;
  for (ClusterManager* cm : cluster_managers_) {
    ContainerLifecycleListener listener;
    listener.on_down = [this](ContainerId container, bool planned) {
      ServerHandle* server = registry_->GetByContainer(container);
      if (server != nullptr) {
        orchestrator_.OnServerDown(server->id, planned);
      }
    };
    listener.on_up = [this](ContainerId container) {
      ServerHandle* server = registry_->GetByContainer(container);
      if (server != nullptr) {
        orchestrator_.OnServerUp(server->id);
      }
    };
    listener.on_stopped = [this](ContainerId container) {
      ServerHandle* server = registry_->GetByContainer(container);
      if (server != nullptr) {
        orchestrator_.OnServerStopped(server->id);
      }
    };
    cm->AddLifecycleListener(app, std::move(listener));
  }
  orchestrator_.Start();
}

}  // namespace shardman
