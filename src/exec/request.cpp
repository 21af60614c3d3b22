#include "sttsim/exec/request.hpp"

#include <signal.h>

namespace sttsim::exec {

InterruptFlag& interrupt_source() {
  static InterruptFlag flag;
  return flag;
}

namespace {

void interrupt_handler(int) {
  // Async-signal-safe: one lock-free atomic store. The flag outlives every
  // handler invocation (function-local static, constructed before the
  // handler is installed).
  interrupt_source().cancel();
}

}  // namespace

void install_interrupt_handler() {
  // Touch the flag first so its lazy construction never happens inside
  // the handler.
  (void)interrupt_source();
  struct sigaction sa;
  sigemptyset(&sa.sa_mask);
  sa.sa_handler = interrupt_handler;
  // First Ctrl-C requests a graceful drain; the handler then resets so a
  // second Ctrl-C falls through to the default (kill) disposition.
  sa.sa_flags = SA_RESETHAND;
  sigaction(SIGINT, &sa, nullptr);
}

void set_default_request(const CampaignRequest& /*request*/) {}

}  // namespace sttsim::exec
