#include "relayer/wallet.hpp"

#include <cassert>

#include "util/log.hpp"
#include <cmath>

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

void Wallet::submit(std::vector<chain::Msg> msgs, std::uint64_t gas_limit,
                    SubmitCallback cb, std::function<void()> on_broadcast) {
  waiting_.push_back(PendingSubmit{
      std::make_shared<const std::vector<chain::Msg>>(std::move(msgs)),
      gas_limit, std::move(cb), std::move(on_broadcast)});
  pump();
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

void Wallet::pump() {
  while (!waiting_.empty()) {
    Account* acct = pick_account();
    if (!acct) return;
    PendingSubmit work = std::move(waiting_.front());
    waiting_.pop_front();
    const auto idx = static_cast<std::size_t>(acct - accounts_.data());
    start_submit(idx, std::move(work));
  }
}

void Wallet::refresh_sequence(std::size_t account_idx,
                              std::function<void()> then) {
  Account& acct = accounts_[account_idx];
  server_.abci_query(machine_, "auth/seq/" + acct.address, /*prove=*/false,
                     [this, account_idx, then = std::move(then)](
                         util::Result<rpc::Server::AbciQueryResult> res) {
                       Account& a = accounts_[account_idx];
                       if (res.is_ok() && res.value().exists &&
                           res.value().value.size() == 8) {
                         a.next_sequence =
                             util::read_u64_be(res.value().value, 0);
                         a.sequence_known = true;
                       }
                       then();
                     });
}

void Wallet::start_submit(std::size_t account_idx, PendingSubmit work) {
  Account& acct = accounts_[account_idx];
  acct.busy = true;
  ++in_flight_;

  auto proceed = [this, account_idx, work = std::move(work)]() mutable {
    chain::TxPtr tx = seal_next(account_idx, work);
    broadcast(account_idx, std::move(tx), std::move(work),
              config_.max_sequence_retries, config_.max_broadcast_retries);
  };

  if (!acct.sequence_known) {
    refresh_sequence(account_idx, std::move(proceed));
  } else {
    proceed();
  }
}

chain::TxPtr Wallet::seal_next(std::size_t account_idx,
                               const PendingSubmit& work) const {
  chain::Tx tx;
  tx.sender = accounts_[account_idx].address;
  tx.sequence = accounts_[account_idx].next_sequence;
  tx.gas_limit = work.gas_limit;
  tx.fee = static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(work.gas_limit) * config_.gas_price));
  // A copy: `work` keeps its msgs for a re-sequenced retry.
  tx.msgs = *work.msgs;
  return chain::seal(std::move(tx));
}

void Wallet::finish(std::size_t account_idx, const SubmitOutcome& outcome,
                    const SubmitCallback& cb) {
  Account& acct = accounts_[account_idx];
  acct.busy = false;
  assert(in_flight_ > 0);
  --in_flight_;
  if (cb) cb(outcome);
  pump();
}

void Wallet::broadcast(std::size_t account_idx, chain::TxPtr tx,
                       PendingSubmit work, int seq_retries_left,
                       int broadcast_retries_left) {
  server_.broadcast_tx_sync(
      machine_, tx,
      [this, account_idx, tx, work = std::move(work), seq_retries_left,
       broadcast_retries_left](util::Status status) mutable {
        Account& acct = accounts_[account_idx];
        const chain::TxHash hash = tx->hash();
        if (status.is_ok()) {
          // Accepted into the mempool: optimistically advance the sequence
          // and track to commitment.
          acct.next_sequence = tx->sequence + 1;
          ++acct.unconfirmed;
          if (work.on_broadcast) work.on_broadcast();
          const sim::TimePoint deadline = sched_.now() + config_.confirm_timeout;
          if (config_.optimistic_sequencing) {
            // Free the account for the next submission immediately; the
            // confirmation loop runs in the background.
            SubmitCallback cb = std::move(work.cb);
            acct.busy = false;
            --in_flight_;
            pump();
            confirm_loop(account_idx, hash, std::move(cb), deadline);
          } else {
            // Hold the account until this tx commits (CLI behaviour).
            confirm_loop(account_idx, hash,
                         [this, account_idx, cb = std::move(work.cb)](
                             const SubmitOutcome& outcome) {
                           finish(account_idx, outcome, cb);
                         },
                         deadline);
          }
          return;
        }

        if (status.code() == util::ErrorCode::kSequenceMismatch &&
            seq_retries_left > 0) {
          ++seq_mismatch_;
          IBC_LOG(kWarn, "wallet") << acct.address << " seq mismatch on tx seq "
                                   << tx->sequence << ": " << status.message()
                                   << " (retrying)";
          acct.sequence_known = false;
          refresh_sequence(account_idx, [this, account_idx,
                                         work = std::move(work),
                                         seq_retries_left,
                                         broadcast_retries_left]() mutable {
            chain::TxPtr retry = seal_next(account_idx, work);
            broadcast(account_idx, std::move(retry), std::move(work),
                      seq_retries_left - 1, broadcast_retries_left);
          });
          return;
        }
        if (status.code() == util::ErrorCode::kSequenceMismatch) {
          ++seq_mismatch_;
        }

        if (status.code() == util::ErrorCode::kUnavailable &&
            broadcast_retries_left > 0) {
          ++rpc_unavailable_;
          sched_.schedule_after(
              config_.broadcast_retry_backoff,
              [this, account_idx, tx = std::move(tx), work = std::move(work),
               seq_retries_left, broadcast_retries_left]() mutable {
                broadcast(account_idx, std::move(tx), std::move(work),
                          seq_retries_left, broadcast_retries_left - 1);
              });
          return;
        }
        if (status.code() == util::ErrorCode::kUnavailable) {
          ++rpc_unavailable_;
        }

        SubmitOutcome outcome;
        outcome.status = status;
        outcome.hash = hash;
        finish(account_idx, outcome, work.cb);
      });
}

void Wallet::confirm_loop(std::size_t account_idx, chain::TxHash hash,
                          SubmitCallback cb, sim::TimePoint deadline) {
  server_.query_tx(
      machine_, hash,
      [this, account_idx, hash, cb = std::move(cb),
       deadline](util::Result<rpc::TxResponse> res) mutable {
        Account& acct = accounts_[account_idx];
        if (res.is_ok()) {
          if (acct.unconfirmed > 0) --acct.unconfirmed;
          ++txs_committed_;
          fees_paid_ += res.value().tx->fee;
          SubmitOutcome outcome;
          outcome.status = res.value().result->status;
          outcome.hash = hash;
          outcome.height = res.value().height;
          outcome.committed = true;
          if (cb) cb(outcome);
          return;
        }
        if (sched_.now() >= deadline) {
          // The paper's "failed tx: no confirmation".
          ++no_confirmation_;
          if (acct.unconfirmed > 0) --acct.unconfirmed;
          // The account's on-chain sequence is now uncertain; force a
          // refresh before its next use.
          acct.sequence_known = false;
          SubmitOutcome outcome;
          outcome.status = util::Status::error(
              util::ErrorCode::kTimeout, "failed tx: no confirmation");
          outcome.hash = hash;
          if (cb) cb(outcome);
          return;
        }
        sched_.schedule_after(
            config_.confirm_poll_interval,
            [this, account_idx, hash, cb = std::move(cb), deadline]() mutable {
              confirm_loop(account_idx, hash, std::move(cb), deadline);
            });
      });
}

}  // namespace relayer
