// Fixture: MUST FAIL the hot-path-alloc rule.
//
// grow_pool allocates five calls below the root Node::deliver
// (deliver -> hop_one -> hop_two -> hop_three -> hop_four -> grow_pool).
// Every name on the chain is defined once, so the walk resolves each call;
// the traversal depth (6) must reach this far.
#include <vector>

namespace dnsguard {

std::vector<int> pool;

struct Node {
  void deliver(int packet);
};

void grow_pool(int v) { pool.push_back(v); }

void hop_four(int v) { grow_pool(v); }

void hop_three(int v) { hop_four(v); }

void hop_two(int v) { hop_three(v); }

void hop_one(int v) { hop_two(v); }

void Node::deliver(int packet) { hop_one(packet); }

}  // namespace dnsguard
