// dpulint self-test fixture: the declarations that feed the await-status
// symbol tables. Never compiled — only lexed.
#include "offload/protocol.h"

namespace fixture {

/// Status-returning endpoint: `wait` is ambiguous repo-wide (FakeEvent below
/// also declares one), `finalize` is unambiguous.
class FakeEndpoint {
 public:
  sim::Task<Status> wait(int req);
  sim::Task<Status> finalize();
  sim::Task<bool> test(int req);
};

/// Non-status awaitable: its `wait` returns void, which is what makes the
/// name ambiguous and forces receiver-based resolution.
class FakeEvent {
 public:
  sim::Task<void> wait();
};

struct RankCtx {
  FakeEndpoint* off = nullptr;
  FakeEvent done_ev;
};

FakeEndpoint& endpoint(int rank);

}  // namespace fixture
