#include "cosmos/auth.hpp"

#include "util/bytes.hpp"

namespace cosmos {

util::Key AuthKeeper::seq_key(std::string_view addr) {
  return util::Key("auth/seq/", addr);
}

bool AuthKeeper::account_exists(std::string_view addr) const {
  return store_.contains(seq_key(addr));
}

void AuthKeeper::create_account(std::string_view addr) {
  store_.insert_new(seq_key(addr), util::u64_be(0));
}

void AuthKeeper::create_accounts(const std::vector<chain::Address>& addrs) {
  store_.update_many(
      addrs.size(), [&addrs](std::size_t i) { return seq_key(addrs[i]); },
      [](chain::KvStore::Slot& slot) {
        if (!slot.value()) slot.set(util::u64_be(0));
      });
}

std::uint64_t AuthKeeper::sequence(std::string_view addr) const {
  return util::stored_u64(store_.get_view(seq_key(addr)));  // ante-hot
}

void AuthKeeper::increment_sequence(std::string_view addr) {
  store_.update(seq_key(addr), [](chain::KvStore::Slot& slot) {
    slot.set(util::u64_be(util::stored_u64(slot.value()) + 1));
  });
}

}  // namespace cosmos
