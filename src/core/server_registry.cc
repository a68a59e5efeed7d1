#include "src/core/server_registry.h"

#include <memory>
#include <utility>

#include "src/common/check.h"

namespace shardman {

void ServerRegistry::Register(ServerHandle handle) {
  SM_CHECK(handle.id.valid());
  SM_CHECK_EQ(servers_.count(handle.id.value), 0u);
  by_container_[handle.container.value] = handle.id;
  servers_.emplace(handle.id.value, std::move(handle));
}

ServerHandle* ServerRegistry::Get(ServerId id) {
  auto it = servers_.find(id.value);
  return it != servers_.end() ? &it->second : nullptr;
}

const ServerHandle* ServerRegistry::Get(ServerId id) const {
  auto it = servers_.find(id.value);
  return it != servers_.end() ? &it->second : nullptr;
}

ServerHandle* ServerRegistry::GetByContainer(ContainerId container) {
  auto it = by_container_.find(container.value);
  if (it == by_container_.end()) {
    return nullptr;
  }
  return Get(it->second);
}

void ServerRegistry::SetAlive(ServerId id, bool alive) {
  ServerHandle* handle = Get(id);
  if (handle != nullptr) {
    handle->alive = alive;
  }
}

bool ServerRegistry::IsAlive(ServerId id) const {
  const ServerHandle* handle = Get(id);
  return handle != nullptr && handle->alive;
}

std::vector<ServerId> ServerRegistry::ServersOf(AppId app) const {
  std::vector<ServerId> out;
  for (const auto& [id, handle] : servers_) {
    if (handle.app == app) {
      out.push_back(handle.id);
    }
  }
  return out;
}

namespace {

// The one heap record of an in-flight call: the caller's callback, the response the timeout
// delivers, and whether the call has completed. The timer and every network hop hold a pointer
// to this record and nothing else of the caller's, so the caller's closure is moved in once and
// never copied per hop. It must not be reachable from its own `done` (a reference cycle).
template <typename Response>
struct CallRecord {
  CallRecord(std::function<void(const Response&)> callback, Response timeout)
      : done(std::move(callback)), timeout_response(std::move(timeout)) {}

  // Whichever of {response, timeout} arrives first wins; the loser, like a duplicated reply, is
  // a no-op. The winner moves `done` out and releases it after running it, so the caller's
  // closure dies with the first completion rather than with the last holder of the record.
  void Complete(const Response& response) {
    if (fired) {
      return;
    }
    fired = true;
    std::function<void(const Response&)> callback = std::move(done);
    done = nullptr;
    callback(response);
  }

  std::function<void(const Response&)> done;
  Response timeout_response;
  bool fired = false;
};

// Creates the call's record and arms its client-side timeout. Essential on a real network — a
// dropped message (e.g. across a partition) otherwise leaves the caller waiting forever. The
// timer is scheduled first and never cancelled: when the reply wins it stays queued as a no-op.
// Cancelling it would move the sharded simulator's window starts and with them same-instant
// tie-breaks (DESIGN.md §13).
template <typename Response>
std::shared_ptr<CallRecord<Response>> StartCall(Simulator* sim, TimeMicros timeout,
                                                std::function<void(const Response&)> done,
                                                Response timeout_response) {
  auto call = std::make_shared<CallRecord<Response>>(std::move(done),
                                                     std::move(timeout_response));
  sim->Schedule(timeout, [call]() { call->Complete(call->timeout_response); });
  return call;
}

}  // namespace

void CallControl(Network& network, RegionId caller_region, ServerRegistry& registry,
                 ServerId target, std::function<Status(ShardServerApi&)> fn,
                 std::function<void(const Status&)> done, TimeMicros timeout) {
  auto call = StartCall<Status>(network.sim(), timeout, std::move(done),
                                UnavailableError("rpc timeout"));
  ServerHandle* handle = registry.Get(target);
  if (handle == nullptr) {
    return;  // resolved by the timeout
  }
  RegionId server_region = handle->region;
  network.Send(caller_region, server_region,
               [&network, &registry, target, caller_region, server_region, fn = std::move(fn),
                call]() {
                 ServerHandle* h = registry.Get(target);
                 if (h == nullptr || !h->alive || h->api == nullptr) {
                   return;  // no response; the caller's timeout fires
                 }
                 Status status = fn(*h->api);
                 network.Send(server_region, caller_region,
                              [call, status]() { call->Complete(status); });
               });
}

void CallData(Network& network, RegionId caller_region, ServerRegistry& registry, ServerId target,
              Request request, ReplyCallback done, TimeMicros timeout) {
  Reply timeout_reply;
  timeout_reply.status = UnavailableError("rpc timeout");
  timeout_reply.served_by = target;
  auto call = StartCall<Reply>(network.sim(), timeout, std::move(done), std::move(timeout_reply));
  ServerHandle* handle = registry.Get(target);
  if (handle == nullptr) {
    return;  // resolved by the timeout
  }
  RegionId server_region = handle->region;
  network.Send(
      caller_region, server_region,
      [&network, &registry, target, caller_region, server_region, request, call]() {
        ServerHandle* h = registry.Get(target);
        if (h == nullptr || !h->alive || h->api == nullptr) {
          return;  // no response; the caller's timeout fires
        }
        h->api->HandleRequest(request, [&network, server_region, caller_region, call](
                                           const Reply& reply) {
          network.Send(server_region, caller_region, [call, reply]() { call->Complete(reply); });
        });
      });
}

}  // namespace shardman
