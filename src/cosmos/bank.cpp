#include "cosmos/bank.hpp"

namespace cosmos {

util::Key BankKeeper::balance_key(std::string_view addr,
                                  std::string_view denom) {
  return util::Key("bank/bal/", addr, "|", denom);
}

util::Key BankKeeper::supply_key(std::string_view denom) {
  return util::Key("bank/supply/", denom);
}

namespace {

using U64 = std::optional<std::uint64_t>;

/// Read-modify-write of a balance or supply through its probed slot:
/// writes next(old), erasing at 0 to keep the state (and its root)
/// canonical, or leaves the key as it is when next returns nullopt.
/// Returns old.
template <typename F>
std::uint64_t update_u64(chain::KvStore::Slot& slot, F&& next) {
  const std::uint64_t old = util::stored_u64(slot.value());
  const U64 v = next(old);
  if (v) {
    if (*v == 0) {
      slot.erase();
    } else {
      slot.set(util::u64_be(*v));
    }
  }
  return old;
}

/// update_u64() of `key` in one probe.
template <typename F>
std::uint64_t update_u64(chain::KvStore& store, std::string_view key,
                         F&& next) {
  std::uint64_t old = 0;
  store.update(key, [&](chain::KvStore::Slot& slot) {
    old = update_u64(slot, next);
  });
  return old;
}

void add_u64(chain::KvStore& store, std::string_view key,
             std::uint64_t amount) {
  update_u64(store, key, [amount](std::uint64_t v) { return U64(v + amount); });
}

}  // namespace

std::uint64_t BankKeeper::balance(std::string_view addr,
                                  std::string_view denom) const {
  // Zero-copy: ante checks are hot.
  return util::stored_u64(store_.get_view(balance_key(addr, denom)));
}

void BankKeeper::set_balance(std::string_view addr, const Coin& coin) {
  const std::uint64_t before =
      update_u64(store_, balance_key(addr, coin.denom),
                 [&](std::uint64_t) { return U64(coin.amount); });
  // Genesis allocations count toward supply so invariants hold from block 1.
  update_u64(store_, supply_key(coin.denom), [&](std::uint64_t supply) {
    return U64(supply - before + coin.amount);
  });
}

void BankKeeper::fund_many(const std::vector<chain::Address>& addrs,
                           const Coin& coin) {
  // Same final state as set_balance() per account, but the supply
  // read-modify-write happens once instead of once per account. The net
  // delta accumulates in wrapping u64 arithmetic, which commutes with the
  // sequential per-account adjustments.
  std::uint64_t minted = 0;
  store_.update_many(
      addrs.size(),
      [&](std::size_t i) { return balance_key(addrs[i], coin.denom); },
      [&](chain::KvStore::Slot& slot) {
        minted += coin.amount - update_u64(slot, [&](std::uint64_t) {
                    return U64(coin.amount);
                  });
      });
  add_u64(store_, supply_key(coin.denom), minted);
}

util::Status BankKeeper::send(std::string_view from, std::string_view to,
                              const Coin& coin) {
  const std::uint64_t from_bal = update_u64(
      store_, balance_key(from, coin.denom), [&](std::uint64_t bal) {
        return bal < coin.amount ? std::nullopt : U64(bal - coin.amount);
      });
  if (from_bal < coin.amount) {
    return util::Status::error(util::ErrorCode::kFailedPrecondition,
                               "insufficient funds: " + std::string(from) +
                                   " has " + std::to_string(from_bal) +
                                   coin.denom + ", needs " + coin.to_string());
  }
  add_u64(store_, balance_key(to, coin.denom), coin.amount);
  return util::Status::ok();
}

void BankKeeper::mint(std::string_view to, const Coin& coin) {
  add_u64(store_, balance_key(to, coin.denom), coin.amount);
  add_u64(store_, supply_key(coin.denom), coin.amount);
}

util::Status BankKeeper::burn(std::string_view from, const Coin& coin) {
  const std::uint64_t bal = update_u64(
      store_, balance_key(from, coin.denom), [&](std::uint64_t v) {
        return v < coin.amount ? std::nullopt : U64(v - coin.amount);
      });
  if (bal < coin.amount) {
    return util::Status::error(util::ErrorCode::kFailedPrecondition,
                               "insufficient funds to burn " + coin.to_string());
  }
  update_u64(store_, supply_key(coin.denom),
             [&](std::uint64_t supply) { return U64(supply - coin.amount); });
  return util::Status::ok();
}

std::uint64_t BankKeeper::supply(std::string_view denom) const {
  return util::stored_u64(store_.get_view(supply_key(denom)));
}

}  // namespace cosmos
