#include "cosmos/bank.hpp"

namespace cosmos {

util::Key BankKeeper::balance_key(std::string_view addr,
                                  std::string_view denom) {
  return util::Key("bank/bal/", addr, "|", denom);
}

util::Key BankKeeper::supply_key(std::string_view denom) {
  return util::Key("bank/supply/", denom);
}

std::uint64_t BankKeeper::read_u64(std::string_view key) const {
  const auto v = store_.get_view(key);  // zero-copy: ante checks are hot
  if (!v || v->size() != 8) return 0;
  return util::read_u64_be(*v, 0);
}

void BankKeeper::write_u64(std::string_view key, std::uint64_t v) {
  if (v == 0) {
    store_.erase(key);  // keep the state (and its root) canonical
    return;
  }
  store_.set(key, util::u64_be(v));
}

std::uint64_t BankKeeper::balance(std::string_view addr,
                                  std::string_view denom) const {
  return read_u64(balance_key(addr, denom));
}

void BankKeeper::set_balance(std::string_view addr, const Coin& coin) {
  const util::Key key = balance_key(addr, coin.denom);
  const std::uint64_t before = read_u64(key);
  write_u64(key, coin.amount);
  // Genesis allocations count toward supply so invariants hold from block 1.
  write_u64(supply_key(coin.denom),
            supply(coin.denom) - before + coin.amount);
}

void BankKeeper::fund_many(const std::vector<chain::Address>& addrs,
                           const Coin& coin) {
  // Same final state as set_balance() per account, but the supply
  // read-modify-write happens once instead of once per account. The net
  // delta accumulates in wrapping u64 arithmetic, which commutes with the
  // sequential per-account adjustments.
  std::uint64_t minted = 0;
  for (const chain::Address& addr : addrs) {
    const util::Key key = balance_key(addr, coin.denom);
    const std::uint64_t before = read_u64(key);
    write_u64(key, coin.amount);
    minted += coin.amount - before;
  }
  write_u64(supply_key(coin.denom), supply(coin.denom) + minted);
}

util::Status BankKeeper::send(std::string_view from, std::string_view to,
                              const Coin& coin) {
  const util::Key from_key = balance_key(from, coin.denom);
  const std::uint64_t from_bal = read_u64(from_key);
  if (from_bal < coin.amount) {
    return util::Status::error(util::ErrorCode::kFailedPrecondition,
                               "insufficient funds: " + std::string(from) +
                                   " has " + std::to_string(from_bal) +
                                   coin.denom + ", needs " + coin.to_string());
  }
  write_u64(from_key, from_bal - coin.amount);
  const util::Key to_key = balance_key(to, coin.denom);
  write_u64(to_key, read_u64(to_key) + coin.amount);
  return util::Status::ok();
}

void BankKeeper::mint(std::string_view to, const Coin& coin) {
  const util::Key key = balance_key(to, coin.denom);
  write_u64(key, read_u64(key) + coin.amount);
  const util::Key supply = supply_key(coin.denom);
  write_u64(supply, read_u64(supply) + coin.amount);
}

util::Status BankKeeper::burn(std::string_view from, const Coin& coin) {
  const util::Key key = balance_key(from, coin.denom);
  const std::uint64_t bal = read_u64(key);
  if (bal < coin.amount) {
    return util::Status::error(util::ErrorCode::kFailedPrecondition,
                               "insufficient funds to burn " + coin.to_string());
  }
  write_u64(key, bal - coin.amount);
  const util::Key supply = supply_key(coin.denom);
  write_u64(supply, read_u64(supply) - coin.amount);
  return util::Status::ok();
}

std::uint64_t BankKeeper::supply(std::string_view denom) const {
  return read_u64(supply_key(denom));
}

}  // namespace cosmos
