// Fixture: MUST FAIL the hot-path-alloc rule.
//
// EventQueue::schedule is a registered hot-path root, but like most of
// the real EventQueue it is defined inside its class body, where the text
// front-end sees only the bare name `schedule`. Roots must still match
// such in-class methods by their enclosing class, or the chunk growth
// below escapes the rule.
#include <memory>
#include <vector>

namespace dnsguard {

class EventQueue {
 public:
  template <typename F>
  void schedule(long at, F&& fn) {
    grow_chunks();
    (void)at;
    (void)fn;
  }

 private:
  void grow_chunks() { chunks_.push_back(std::make_unique<int[]>(64)); }

  std::vector<std::unique_ptr<int[]>> chunks_;
};

}  // namespace dnsguard
