// Fixture: MUST FAIL the hot-path-alloc rule.
//
// grow_pool allocates two calls below the root Node::flush_outbox_at,
// well inside the traversal depth. The other root, Node::deliver, reaches
// schedule_event too, but only at the depth cap (6 calls). Whether
// grow_pool gets scanned must not depend on which root reaches
// schedule_event first: a function found again by a shallower route is
// expanded again.
#include <vector>

namespace dnsguard {

std::vector<int> pool;

struct Node {
  void flush_outbox_at(int at);
  void deliver(int packet);
};

void Node::flush_outbox_at(int at) { schedule_event(at); }

void grow_pool(int v) { pool.push_back(v); }

void schedule_event(int v) { grow_pool(v); }

void hop_five(int v) { schedule_event(v); }

void hop_four(int v) { hop_five(v); }

void hop_three(int v) { hop_four(v); }

void hop_two(int v) { hop_three(v); }

void hop_one(int v) { hop_two(v); }

void Node::deliver(int packet) { hop_one(packet); }

}  // namespace dnsguard
