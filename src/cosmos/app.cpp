#include "cosmos/app.hpp"

#include <cmath>

namespace cosmos {

CosmosApp::CosmosApp(chain::ChainId chain_id, AppConfig config)
    : chain_id_(std::move(chain_id)),
      config_(config),
      bank_(store_),
      auth_(store_) {}

const chain::Address& CosmosApp::fee_collector() {
  static const chain::Address addr = "fee_collector";
  return addr;
}

void CosmosApp::register_handler(const std::string& type_url,
                                 MsgHandler* handler) {
  handlers_[type_url] = handler;
}

void CosmosApp::add_genesis_account(const chain::Address& addr,
                                    std::uint64_t amount) {
  auth_.create_account(addr);
  bank_.set_balance(addr, Coin{kNativeDenom, amount});
}

void CosmosApp::add_genesis_accounts(const std::vector<chain::Address>& addrs,
                                     std::uint64_t amount) {
  // Two entries per account (sequence + balance) plus the supply key.
  store_.reserve(store_.size() + 2 * addrs.size() + 1);
  auth_.create_accounts(addrs);
  bank_.fund_many(addrs, Coin{kNativeDenom, amount});
}

util::Status CosmosApp::ante_check(const chain::Tx& tx,
                                   std::uint64_t pending_same_sender) const {
  if (tx.msgs.empty()) {
    return util::Status::error(util::ErrorCode::kInvalidArgument,
                               "tx has no messages");
  }
  if (!auth_.account_exists(tx.sender)) {
    return util::Status::error(util::ErrorCode::kNotFound,
                               "unknown account " + tx.sender);
  }
  const std::uint64_t expected = auth_.sequence(tx.sender) + pending_same_sender;
  if (tx.sequence != expected) {
    return util::Status::error(
        util::ErrorCode::kSequenceMismatch,
        "account sequence mismatch: expected " + std::to_string(expected) +
            ", got " + std::to_string(tx.sequence));
  }
  const auto min_fee = static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(tx.gas_limit) * config_.min_gas_price));
  if (tx.fee < min_fee) {
    return util::Status::error(util::ErrorCode::kFailedPrecondition,
                               "insufficient fee: got " +
                                   std::to_string(tx.fee) + ", need " +
                                   std::to_string(min_fee));
  }
  if (bank_.balance(tx.sender, kNativeDenom) < tx.fee) {
    return util::Status::error(util::ErrorCode::kFailedPrecondition,
                               "insufficient balance for fee");
  }
  return util::Status::ok();
}

chain::CheckTxResult CosmosApp::check_tx(const chain::Tx& tx) {
  return check_tx_pending(tx, 0);
}

chain::CheckTxResult CosmosApp::check_tx_pending(
    const chain::Tx& tx, std::uint64_t pending_same_sender) {
  chain::CheckTxResult res;
  res.status = ante_check(tx, pending_same_sender);
  res.gas_wanted = tx.gas_limit;
  return res;
}

void CosmosApp::begin_block(const chain::BlockHeader& header) {
  current_height_ = header.height;
  current_block_time_ = header.time;
}

chain::DeliverTxResult CosmosApp::deliver_tx(const chain::Tx& tx) {
  chain::DeliverTxResult res;

  // Ante handler: its effects persist regardless of message outcomes.
  res.status = ante_check(tx, 0);
  if (!res.status.is_ok()) {
    ++txs_failed_;
    return res;
  }
  auth_.increment_sequence(tx.sender);
  (void)bank_.send(tx.sender, fee_collector(), Coin{kNativeDenom, tx.fee});
  res.gas_used = config_.base_tx_gas;

  // Message execution inside a journal: all-or-nothing.
  store_.begin_tx();
  MsgContext ctx{*this, current_height_, current_block_time_, &tx, &res.events,
                 0};
  for (const chain::Msg& msg : tx.msgs) {
    const auto it = handlers_.find(msg.type_url);
    if (it == handlers_.end()) {
      res.status = util::Status::error(util::ErrorCode::kNotFound,
                                       "no handler for " + msg.type_url);
      break;
    }
    res.status = it->second->handle(msg, ctx);
    if (!res.status.is_ok()) break;
  }

  res.gas_used += ctx.gas_used;  // gas is consumed even on failure
  if (res.status.is_ok() && res.gas_used > tx.gas_limit) {
    // Out of gas: the SDK aborts the tx. The wallet layer pads gas limits,
    // so this path is exercised mainly by adversarial tests.
    res.status = util::Status::error(util::ErrorCode::kResourceExhausted,
                                     "out of gas");
  }
  if (res.status.is_ok()) {
    store_.commit_tx();
    ++txs_succeeded_;
  } else {
    store_.revert_tx();
    res.events.clear();  // failed txs emit no app events
    ++txs_failed_;
  }
  return res;
}

std::vector<chain::Event> CosmosApp::end_block(chain::Height height) {
  (void)height;
  return {};
}

crypto::Digest CosmosApp::commit() {
  return store_.root();
}

sim::Duration CosmosApp::execution_cost(const chain::Tx& tx) const {
  // Gas is the SDK's own measure of execution work; map it to virtual time.
  const double nanos =
      static_cast<double>(tx.gas_limit) * config_.exec_nanos_per_gas;
  return std::max<sim::Duration>(sim::micros(50),
                                 static_cast<sim::Duration>(nanos / 1000.0));
}

}  // namespace cosmos
