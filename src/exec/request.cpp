#include "sttsim/exec/request.hpp"

#include <mutex>

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

std::mutex g_request_mu;
CampaignRequest g_default_request;  // guarded by g_request_mu

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

void set_default_request(const CampaignRequest& request) {
  std::lock_guard<std::mutex> lock(g_request_mu);
  g_default_request = request;
}

CampaignRequest default_request() {
  std::lock_guard<std::mutex> lock(g_request_mu);
  return g_default_request;
}

}  // namespace sttsim::exec
