#include "sttsim/sim/resource.hpp"

#include "sttsim/util/check.hpp"

namespace sttsim::sim {

BankSet::BankSet(unsigned num_banks, std::uint64_t line_bytes) {
  if (num_banks == 0 || !is_pow2(num_banks)) {
    throw ConfigError("bank count must be a nonzero power of two");
  }
  if (!is_pow2(line_bytes)) {
    throw ConfigError("bank interleave granularity must be a power of two");
  }
  banks_.resize(num_banks);
  line_shift_ = log2_exact(line_bytes);
  bank_mask_ = num_banks - 1;
}

void BankSet::reset() {
  for (auto& b : banks_) b.reset();
}

}  // namespace sttsim::sim
