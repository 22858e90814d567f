#include "relayer/wallet.hpp"

#include <cassert>
#include <cmath>

#include "util/log.hpp"

namespace relayer {

Wallet::Wallet(sim::Scheduler& sched, rpc::Server& server,
               net::MachineId machine, WalletConfig config)
    : sched_(sched), server_(server), machine_(machine),
      config_(std::move(config)) {
  assert(!config_.accounts.empty());
  for (const chain::Address& addr : config_.accounts) {
    accounts_.push_back(Account{addr, 0, false, 0, false});
  }
}

sim::Task<Wallet::SubmitOutcome> Wallet::submit(
    std::vector<chain::Msg> msgs, std::uint64_t gas_limit,
    std::function<void()> on_broadcast) {
  // The submission runs as a task of its own, so that the wallet can pump
  // its queue after the caller has taken the outcome: the account it frees
  // goes to the next queued submission only once the caller's continuation
  // has run (a burst's read-back of its committed tx is sent before the
  // queued tx's broadcast, and each send draws network jitter in turn).
  SubmitOutcome outcome = co_await sim::callback<SubmitOutcome>(
      [&](sim::Resume<SubmitOutcome> done) {
        sim::spawn(run(std::move(msgs), gas_limit, std::move(on_broadcast)),
                   [this, done](SubmitOutcome out) {
                     done(std::move(out));
                     pump();
                   });
      });
  co_return outcome;
}

Wallet::Account* Wallet::pick_account() {
  // Round-robin over accounts that are free to submit. In optimistic mode an
  // account is free whenever no submission is mid-broadcast on it; in
  // wait-for-commit mode it must also have no unconfirmed transaction.
  for (Account& acct : accounts_) {
    if (acct.busy) continue;
    if (!config_.optimistic_sequencing && acct.unconfirmed > 0) continue;
    return &acct;
  }
  return nullptr;
}

std::size_t Wallet::take(Account& acct) {
  acct.busy = true;
  ++in_flight_;
  return static_cast<std::size_t>(&acct - accounts_.data());
}

void Wallet::release(Account& acct) {
  acct.busy = false;
  assert(in_flight_ > 0);
  --in_flight_;
}

void Wallet::pump() {
  while (!waiting_.empty()) {
    Account* acct = pick_account();
    if (!acct) return;
    const sim::Resume<std::size_t> next = std::move(waiting_.front());
    waiting_.pop_front();
    next(take(*acct));  // runs that submission to its first RPC
  }
}

chain::TxPtr Wallet::seal_next(const Account& acct,
                               const std::vector<chain::Msg>& msgs,
                               std::uint64_t gas_limit) const {
  chain::Tx tx;
  tx.sender = acct.address;
  tx.sequence = acct.next_sequence;
  tx.gas_limit = gas_limit;
  tx.fee = static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(gas_limit) * config_.gas_price));
  // A copy: the submission keeps its msgs for a re-sequenced retry.
  tx.msgs = msgs;
  return chain::seal(std::move(tx));
}

sim::Task<Wallet::SubmitOutcome> Wallet::run(
    std::vector<chain::Msg> msgs, std::uint64_t gas_limit,
    std::function<void()> on_broadcast) {
  // A free account, FIFO behind earlier submissions.
  const std::size_t idx =
      co_await sim::callback<std::size_t>([this](sim::Resume<std::size_t> r) {
        waiting_.push_back(std::move(r));
        pump();
      });
  Account& acct = accounts_[idx];

  // Seal and broadcast. A sequence mismatch re-reads the account's sequence
  // and reseals; a full RPC queue re-sends the same tx after a backoff.
  int seq_retries_left = config_.max_sequence_retries;
  int broadcast_retries_left = config_.max_broadcast_retries;
  chain::TxPtr tx;
  util::Status status;
  for (;;) {
    if (!tx) {
      if (!acct.sequence_known) {
        const auto res = co_await server_.abci_query(
            machine_, "auth/seq/" + acct.address, /*prove=*/false);
        if (res.is_ok() && res.value().exists &&
            res.value().value.size() == 8) {
          acct.next_sequence = util::read_u64_be(res.value().value, 0);
          acct.sequence_known = true;
        }
      }
      tx = seal_next(acct, msgs, gas_limit);
    }
    status = co_await server_.broadcast_tx_sync(machine_, tx);
    if (status.code() == util::ErrorCode::kSequenceMismatch) {
      ++seq_mismatch_;
      if (seq_retries_left == 0) break;
      --seq_retries_left;
      IBC_LOG(kWarn, "wallet") << acct.address << " seq mismatch on tx seq "
                               << tx->sequence << ": " << status.message()
                               << " (retrying)";
      acct.sequence_known = false;
      tx = nullptr;
      continue;
    }
    if (status.code() == util::ErrorCode::kUnavailable) {
      ++rpc_unavailable_;
      if (broadcast_retries_left == 0) break;
      --broadcast_retries_left;
      co_await sim::delay(sched_, config_.broadcast_retry_backoff);
      continue;
    }
    break;
  }
  SubmitOutcome outcome;
  outcome.hash = tx->hash();
  if (!status.is_ok()) {
    release(acct);
    outcome.status = std::move(status);
    co_return outcome;
  }

  // Accepted into the mempool: optimistically advance the sequence and track
  // the tx to commitment. Only a reseal needed the msgs; the sealed tx holds
  // its own copy, so they are not kept through the confirmation polls.
  msgs = std::vector<chain::Msg>();
  acct.next_sequence = tx->sequence + 1;
  ++acct.unconfirmed;
  if (on_broadcast) on_broadcast();
  const sim::TimePoint deadline = sched_.now() + config_.confirm_timeout;
  if (config_.optimistic_sequencing) {
    // Free the account for the next submission now; the confirmation polls
    // run in the background. In wait-for-commit mode the account is held
    // until this tx commits (CLI behaviour).
    release(acct);
    pump();
  }
  for (;;) {
    const auto res = co_await server_.query_tx(machine_, outcome.hash);
    if (res.is_ok()) {
      if (acct.unconfirmed > 0) --acct.unconfirmed;
      ++txs_committed_;
      fees_paid_ += res.value().tx->fee;
      outcome.status = res.value().result->status;
      outcome.height = res.value().height;
      outcome.committed = true;
      break;
    }
    if (sched_.now() >= deadline) {
      // The paper's "failed tx: no confirmation".
      ++no_confirmation_;
      if (acct.unconfirmed > 0) --acct.unconfirmed;
      // The account's on-chain sequence is now uncertain; force a refresh
      // before its next use.
      acct.sequence_known = false;
      outcome.status = util::Status::error(util::ErrorCode::kTimeout,
                                           "failed tx: no confirmation");
      break;
    }
    co_await sim::delay(sched_, config_.confirm_poll_interval);
  }
  if (!config_.optimistic_sequencing) release(acct);
  co_return outcome;
}

}  // namespace relayer
