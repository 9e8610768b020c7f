// One-shot resolution of CheckRequests. The session object (see
// check_session.hpp) owns the actual sweep; run_check runs an equivalent
// single-shard session to completion.
#include "verify/checker.hpp"

#include "verify/check_session.hpp"

namespace kgdp::verify {

CheckResult run_check(const kgd::SolutionGraph& sg, const CheckRequest& req) {
  CheckSession session(sg, req);
  session.run();
  return session.result();
}

}  // namespace kgdp::verify
