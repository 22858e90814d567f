#include "cosmos/auth.hpp"

#include "util/bytes.hpp"

namespace cosmos {

util::Key AuthKeeper::seq_key(std::string_view addr) {
  return util::Key("auth/seq/", addr);
}

std::uint64_t AuthKeeper::read_seq(std::string_view key) const {
  const auto v = store_.get_view(key);  // zero-copy: ante-hot
  if (!v || v->size() != 8) return 0;
  return util::read_u64_be(*v, 0);
}

bool AuthKeeper::account_exists(std::string_view addr) const {
  return store_.contains(seq_key(addr));
}

void AuthKeeper::create_account(std::string_view addr) {
  const util::Key key = seq_key(addr);
  if (store_.contains(key)) return;
  store_.set(key, util::u64_be(0));
}

std::uint64_t AuthKeeper::sequence(std::string_view addr) const {
  return read_seq(seq_key(addr));
}

void AuthKeeper::increment_sequence(std::string_view addr) {
  const util::Key key = seq_key(addr);
  store_.set(key, util::u64_be(read_seq(key) + 1));
}

}  // namespace cosmos
