#pragma once
// Cross-chain Data Connector (paper Fig. 5), RPC-backed.
//
// The paper's tool collects the transactions of every block through
// `tx_search tx.height=X`-style queries, paying the price §V documents: a
// block with 20 x 100-msg transactions returns 331,706 lines in ~2.9 s
// (transfers) / ~5.7 s (recvs), and large blocks must be paginated. This
// connector reproduces that collection path faithfully — paginated
// tx_search against a (serialized) full node — and reports how long each
// block took, so the tooling overhead itself can be measured
// (bench_sec5_data_collection).

#include <vector>

#include "rpc/server.hpp"
#include "sim/scheduler.hpp"
#include "sim/task.hpp"

namespace xcc {

class RpcDataConnector {
 public:
  RpcDataConnector(sim::Scheduler& sched, rpc::Server& server,
                   net::MachineId machine, std::uint32_t per_page = 30)
      : sched_(sched), server_(server), machine_(machine),
        per_page_(per_page) {}

  struct BlockData {
    chain::Height height = 0;
    std::vector<rpc::TxResponse> txs;
    sim::Duration elapsed = 0;  // virtual time spent collecting
    std::uint32_t pages = 0;
    bool ok = false;
  };

  /// Collects every transaction of block `height` via paginated tx_search,
  /// one page after another.
  sim::Task<BlockData> collect_block(chain::Height height);

  /// Convenience: runs collect_block to completion on the scheduler.
  BlockData collect_block_blocking(chain::Height height,
                                   sim::TimePoint limit);

 private:
  sim::Scheduler& sched_;
  rpc::Server& server_;
  net::MachineId machine_;
  std::uint32_t per_page_;
};

}  // namespace xcc
