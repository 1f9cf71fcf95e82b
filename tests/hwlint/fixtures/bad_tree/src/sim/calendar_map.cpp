// Seeded violation: the classic std::map calendar queue — one
// red-black-tree node allocation per scheduled event, exactly what the
// wheel + node-pool event core exists to avoid (src/sim is a hot-path dir).
// Never compiled.
#include <map>

namespace fixture {

struct Event {
  long time;
  int payload;
};

struct MapCalendarQueue {
  std::multimap<long, Event> queue;  // violation: node alloc per insert
  std::map<long, int> buckets;       // violation: node alloc per insert

  void schedule(long t, Event e) { queue.emplace(t, e); }
};

}  // namespace fixture
