// RemoteGuardNode — guard::Core (core.h) as a simulator node in front of
// an authoritative name server. Routes to the ANS (and its fabricated-IP
// subnet) lead here and the ANS's gateway points back, so every packet in
// both directions transits, and is charged to, the guard's CPU.
#pragma once

#include <string>

#include "guard/core.h"
#include "sim/node.h"

namespace dnsguard::guard {

class RemoteGuardNode : public sim::Node, public Core {
 public:
  /// `ans` is the protected server node. The constructor does not touch
  /// routing; call install() to take over the ANS's addresses.
  RemoteGuardNode(sim::Simulator& sim, std::string name, Config config,
                  sim::Node* ans);

  /// Installs routes: ANS address (and subnet for the fabricated-IP
  /// variant) + guard address -> this node; ANS gateway -> this node.
  void install(int subnet_prefix_len = 24);
  /// Reverts to direct routing (protection fully removed).
  void uninstall();

  [[nodiscard]] bool protection_active() const {
    return Core::protection_active(now());
  }

 protected:
  SimDuration process(const net::Packet& packet) override {
    return step(packet, now());
  }
  [[nodiscard]] std::size_t shard_of(const net::Packet& packet) const override {
    return Core::shard_of(packet);
  }

 private:
  /// Runs `fn` every `period` from now on (an OS timer: no CPU charge).
  template <typename F>
  void every(SimDuration period, F fn) {
    schedule_in(period, [this, period, fn] {
      fn();
      every(period, fn);
    });
  }

  sim::Node* ans_;
};

}  // namespace dnsguard::guard
