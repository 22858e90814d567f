#pragma once
// Bank keeper: account balances, transfers, mint/burn.
//
// Backed by the application KvStore so balances participate in the committed
// state and in transaction rollback. Escrow accounts used by ICS-20 are
// ordinary module-owned addresses; the escrow-conservation invariant
// (sum of escrowed == sum of vouchers minted on the other side) is checked
// by property tests.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "chain/store.hpp"
#include "chain/types.hpp"
#include "cosmos/coin.hpp"
#include "util/key.hpp"
#include "util/status.hpp"

namespace cosmos {

class BankKeeper {
 public:
  explicit BankKeeper(chain::KvStore& store) : store_(store) {}

  std::uint64_t balance(std::string_view addr, std::string_view denom) const;

  /// Sets a balance outright (genesis allocation only).
  void set_balance(std::string_view addr, const Coin& coin);

  /// Bulk genesis funding: sets every address's balance to `coin` with a
  /// single supply update at the end, one bulk store load
  /// (KvStore::update_many) over the balance keys.
  /// Byte-identical final state (and store root) to calling set_balance()
  /// per address.
  void fund_many(const std::vector<chain::Address>& addrs, const Coin& coin);

  /// Moves `coin` from `from` to `to`; fails on insufficient funds.
  util::Status send(std::string_view from, std::string_view to,
                    const Coin& coin);

  /// Creates new supply into `to` (ICS-20 voucher minting).
  void mint(std::string_view to, const Coin& coin);

  /// Destroys supply held by `from` (ICS-20 voucher burning).
  util::Status burn(std::string_view from, const Coin& coin);

  /// Total minted minus burned per denom, maintained for invariant checks.
  std::uint64_t supply(std::string_view denom) const;

  /// Store keys: "bank/bal/<addr>|<denom>" and "bank/supply/<denom>".
  static util::Key balance_key(std::string_view addr, std::string_view denom);
  static util::Key supply_key(std::string_view denom);

 private:
  chain::KvStore& store_;
};

}  // namespace cosmos
