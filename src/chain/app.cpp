#include "chain/app.hpp"

namespace chain {

std::size_t DeliverTxResult::encoded_size() const {
  return encoded_size_ != 0 ? encoded_size_ : 64 + chain::encoded_size(events);
}

void DeliverTxResult::cache_encoded_size() {
  encoded_size_ = 64 + chain::encoded_size(events);
}

sim::Duration App::execution_cost(const Tx& tx) const {
  // Default model: fixed per-tx overhead plus per-message execution time.
  // Calibrated so a 100-message IBC tx costs ~10 ms of node CPU.
  return sim::micros(500) +
         sim::micros(95) * static_cast<sim::Duration>(tx.msgs.size());
}

}  // namespace chain
