// Heap allocations of MsgTransfer execution and of a served ServiceQueue
// job.
//
// A delivered MsgTransfer builds its store keys and fixed-width values in
// place, reads its channel end from the keeper's memo and writes the store
// through views, so what it still allocates is what it emits: the packet
// data, the send_packet payload and the ibc_transfer event. A ServiceQueue
// job (every RPC request is one) keeps its callback in its worker while in
// service, so its completion event fits std::function's inline buffer. This
// binary replaces the global operator new to count allocations; the
// sanitizer runtimes replace it too, so it is built in plain builds only.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>

#include "cosmos/app.hpp"
#include "ibc/keeper.hpp"
#include "ibc/msgs.hpp"
#include "ibc/transfer.hpp"
#include "sim/scheduler.hpp"
#include "sim/service_queue.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

constexpr std::uint64_t kMsgs = 100;
/// Allocations deliver_tx may make per MsgTransfer: 3.12 were measured when
/// the transfer path began building keys and values in place (51.35
/// before): the JSON packet data, the send_packet payload, the ibc_transfer
/// event's attributes and the growth of the result's event list.
constexpr double kBudgetPerMsg = 3.5;

TEST(AllocBudget, DeliveredMsgTransfer) {
  cosmos::CosmosApp app{"chain-a"};
  ibc::IbcKeeper ibc{app};
  ibc::TransferModule transfer{app, ibc};
  app.add_genesis_account("user-0", 1'000'000'000);

  ibc::ChannelEnd chan;
  chan.phase = ibc::ChannelPhase::kOpen;
  chan.connection = "connection-0";
  chan.counterparty_port = ibc::kTransferPort;
  chan.counterparty_channel = "channel-0";
  chan.version = "ics20-1";
  ibc.channels().set(ibc::kTransferPort, ibc.channels().generate_id(), chan);
  ibc.channels().set_next_sequence_send(ibc::kTransferPort, "channel-0", 1);
  ibc.channels().set_next_sequence_recv(ibc::kTransferPort, "channel-0", 1);
  ibc.channels().set_next_sequence_ack(ibc::kTransferPort, "channel-0", 1);
  chain::BlockHeader header;
  header.height = 1;
  header.time = sim::seconds(5);
  app.begin_block(header);

  // The workload's shape: one sender, kMsgs transfers of the native denom.
  const auto make_tx = [](std::uint64_t sequence) {
    chain::Tx tx;
    tx.sender = "user-0";
    tx.sequence = sequence;
    tx.gas_limit = 5'000'000;
    tx.fee = 50'000;
    for (std::uint64_t i = 0; i < kMsgs; ++i) {
      ibc::MsgTransfer m;
      m.source_port = ibc::kTransferPort;
      m.source_channel = "channel-0";
      m.denom = cosmos::kNativeDenom;
      m.amount = 1'000;
      m.sender = "user-0";
      m.receiver = "recv-user-0";
      m.timeout_height = 100'000;
      tx.msgs.push_back(m.to_msg());
    }
    return tx;
  };
  // The first tx sizes what the store keeps across txs (its journal, the
  // entry chunk) and fills the channel-end memo.
  ASSERT_TRUE(app.deliver_tx(make_tx(0)).status.is_ok());

  const chain::Tx tx = make_tx(1);
  const std::uint64_t before = g_allocations.load();
  const chain::DeliverTxResult res = app.deliver_tx(tx);
  const std::uint64_t used = g_allocations.load() - before;
  ASSERT_TRUE(res.status.is_ok()) << res.status.to_string();
  const double per_msg = static_cast<double>(used) / kMsgs;
  EXPECT_LE(per_msg, kBudgetPerMsg)
      << used << " allocations for " << kMsgs << " MsgTransfers";
  std::cout << per_msg << " allocations per delivered MsgTransfer\n";
}

/// Allocations per served job whose callback fits std::function's inline
/// buffer. What is left is the pending queue's deque blocks (0.11 per job
/// when the jobs arrive together); the completion event of a job that
/// captured the whole job cost one more per job (1.11).
constexpr double kBudgetPerJob = 0.25;

TEST(AllocBudget, ServiceQueueJob) {
  constexpr int kJobs = 1'000;
  sim::Scheduler sched;
  sim::ServiceQueue queue(sched);
  int done = 0;
  const auto serve_all = [&] {
    for (int i = 0; i < kJobs; ++i) {
      ASSERT_TRUE(queue.enqueue(sim::micros(10), [&done] { ++done; }));
    }
    sched.run_until(sched.now() + sim::seconds(1));
  };
  serve_all();  // sizes the scheduler's event storage

  const std::uint64_t before = g_allocations.load();
  serve_all();
  const std::uint64_t used = g_allocations.load() - before;
  ASSERT_EQ(done, 2 * kJobs);
  const double per_job = static_cast<double>(used) / kJobs;
  EXPECT_LE(per_job, kBudgetPerJob) << used << " allocations for " << kJobs
                                    << " jobs";
  std::cout << per_job << " allocations per served job\n";
}

}  // namespace
