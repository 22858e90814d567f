#pragma once
// Transaction wallet: account, sequence and confirmation management.
//
// Two usage modes mirror the two submission paths in the paper:
//   * optimistic (the relayer): after a transaction is accepted into the
//     mempool the local sequence is incremented immediately, so consecutive
//     transactions flow without waiting for commits. Overload surfaces as
//     "account sequence mismatch" / "failed tx: no confirmation" errors,
//     exactly the failure modes of Table I.
//   * wait-for-commit (the Hermes CLI used for workload submission): an
//     account submits its next transaction only after the previous one
//     commits — which is what limits each account to one transaction per
//     block and forces multi-account submission (§III-D).
//
// A submission is one coroutine, written as the CLI's loop: wait for a free
// account (FIFO behind earlier submissions), refresh its sequence if
// unknown, seal and broadcast, retry on a sequence mismatch or a full RPC
// queue, then poll query_tx until the tx commits or the deadline passes.
// The caller learns the outcome before the account it frees takes the next
// queued submission; in optimistic mode the account is freed, and the queue
// pumped, right after `on_broadcast`, before the first confirmation poll.

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "chain/tx.hpp"
#include "net/network.hpp"
#include "rpc/server.hpp"
#include "sim/scheduler.hpp"
#include "sim/task.hpp"

namespace relayer {

struct WalletConfig {
  std::vector<chain::Address> accounts;
  double gas_price = 0.01;
  bool optimistic_sequencing = true;
  sim::Duration confirm_poll_interval = sim::millis(500);
  sim::Duration confirm_timeout = sim::seconds(40);
  /// Retries after a sequence mismatch (with a fresh sequence query).
  int max_sequence_retries = 1;
  /// Retries after the RPC queue rejects the broadcast.
  int max_broadcast_retries = 2;
  sim::Duration broadcast_retry_backoff = sim::millis(400);
};

class Wallet {
 public:
  struct SubmitOutcome {
    /// OK iff the tx committed AND DeliverTx succeeded.
    util::Status status;
    chain::TxHash hash{};
    chain::Height height = 0;      // inclusion height (0 if never committed)
    bool committed = false;        // included in a block (even if it failed)
  };

  Wallet(sim::Scheduler& sched, rpc::Server& server, net::MachineId machine,
         WalletConfig config);

  Wallet(const Wallet&) = delete;
  Wallet& operator=(const Wallet&) = delete;

  /// Builds a transaction carrying `msgs`, assigns an account and sequence,
  /// broadcasts it and tracks it to commitment; the task finishes with the
  /// outcome. `gas_limit` should cover the messages (the fee is gas_limit *
  /// gas_price). Submissions beyond account capacity queue FIFO.
  /// `on_broadcast` (optional) fires as soon as the mempool accepts the
  /// transaction — before commitment.
  sim::Task<SubmitOutcome> submit(std::vector<chain::Msg> msgs,
                                  std::uint64_t gas_limit,
                                  std::function<void()> on_broadcast = {});

  std::size_t queued() const { return waiting_.size(); }
  std::size_t in_flight() const { return in_flight_; }

  // Error counters (the paper's §IV/§V failure taxonomy).
  std::uint64_t sequence_mismatch_errors() const { return seq_mismatch_; }
  std::uint64_t no_confirmation_errors() const { return no_confirmation_; }
  std::uint64_t rpc_unavailable_errors() const { return rpc_unavailable_; }
  std::uint64_t txs_committed() const { return txs_committed_; }
  std::uint64_t fees_paid() const { return fees_paid_; }

 private:
  struct Account {
    chain::Address address;
    std::uint64_t next_sequence = 0;
    bool sequence_known = false;
    std::uint64_t unconfirmed = 0;  // broadcast but not yet committed
    bool busy = false;              // submission in progress on this account
  };

  /// The submission proper; submit() hands its outcome to the caller, then
  /// pumps the queue.
  sim::Task<SubmitOutcome> run(std::vector<chain::Msg> msgs,
                               std::uint64_t gas_limit,
                               std::function<void()> on_broadcast);
  /// Hands free accounts to queued submissions, oldest first.
  void pump();
  Account* pick_account();
  /// Takes `acct` for a submission; release() gives it back.
  std::size_t take(Account& acct);
  void release(Account& acct);
  /// Seals a tx from `acct`'s next sequence carrying a copy of `msgs`.
  chain::TxPtr seal_next(const Account& acct,
                         const std::vector<chain::Msg>& msgs,
                         std::uint64_t gas_limit) const;

  sim::Scheduler& sched_;
  rpc::Server& server_;
  net::MachineId machine_;
  WalletConfig config_;
  std::vector<Account> accounts_;
  /// Queued submissions, each resumed with the account it is given.
  std::deque<sim::Resume<std::size_t>> waiting_;
  std::size_t in_flight_ = 0;

  std::uint64_t seq_mismatch_ = 0;
  std::uint64_t no_confirmation_ = 0;
  std::uint64_t rpc_unavailable_ = 0;
  std::uint64_t txs_committed_ = 0;
  std::uint64_t fees_paid_ = 0;
};

}  // namespace relayer
