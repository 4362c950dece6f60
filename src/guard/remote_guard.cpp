#include "guard/remote_guard.h"

namespace dnsguard::guard {

RemoteGuardNode::RemoteGuardNode(sim::Simulator& sim, std::string name,
                                 Config cfg, sim::Node* ans)
    : sim::Node(sim, std::move(name), cfg.rx_queue_capacity),
      Core(
          std::move(cfg),
          [this](Dest to, net::Packet p) {
            to == Dest::kAns ? send_direct(ans_, std::move(p))
                             : send(std::move(p));
          },
          this->sim().metrics(), this->sim().journeys(),
          trace_ring()),
      ans_(ans) {
  set_profile_stage(obs::prof::Stage::kGuardService);
  const std::size_t n = config().num_shards;
  if (n > 1) {
    enable_sharded_service(
        n, std::max<std::size_t>(config().rx_queue_capacity / n, 16),
        config().shard_batch_max);
  }
  if (config().proxy_lifetime_rtt_multiple > 0) {
    every(config().estimated_rtt, [this] { reap_proxy(now()); });
  }
  if (config().key_rotation_interval.ns > 0) {
    every(config().key_rotation_interval, [this] { rotate_keys(now()); });
  }
}

void RemoteGuardNode::install(int subnet_prefix_len) {
  sim().add_host_route(config().ans_address, this);
  sim().add_host_route(config().guard_address, this);
  if (config().scheme == Scheme::FabricatedNsIp ||
      config().per_source_scheme.size() > 0) {
    sim().add_route(config().subnet_base, subnet_prefix_len, this);
  }
  sim().set_gateway(ans_, this);
}

void RemoteGuardNode::uninstall() {
  sim().remove_routes_to(this);
  sim().add_host_route(config().ans_address, ans_);
  sim().clear_gateway(ans_);
}

}  // namespace dnsguard::guard
