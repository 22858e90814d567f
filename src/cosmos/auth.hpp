#pragma once
// Auth keeper: accounts and sequence numbers.
//
// Cosmos enforces transaction ordering per account through monotonically
// increasing sequence numbers; the ante handler rejects a transaction whose
// sequence does not equal the account's committed sequence. This is the
// mechanism that limits each account to one transaction per block and forces
// the paper's multi-account submission strategy (§III-D, §V).

#include <cstdint>
#include <string_view>
#include <vector>

#include "chain/store.hpp"
#include "chain/types.hpp"
#include "util/key.hpp"

namespace cosmos {

class AuthKeeper {
 public:
  explicit AuthKeeper(chain::KvStore& store) : store_(store) {}

  bool account_exists(std::string_view addr) const;
  /// Creates the account at sequence 0; an existing one is left as it is.
  void create_account(std::string_view addr);
  /// create_account() for each address in order, as one bulk store load.
  void create_accounts(const std::vector<chain::Address>& addrs);

  /// The sequence the account's *next* transaction must carry.
  std::uint64_t sequence(std::string_view addr) const;
  void increment_sequence(std::string_view addr);

  /// Store key "auth/seq/<addr>".
  static util::Key seq_key(std::string_view addr);

 private:
  chain::KvStore& store_;
};

}  // namespace cosmos
