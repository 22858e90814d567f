#include "xcc/data_connector.hpp"

namespace xcc {

sim::Task<RpcDataConnector::BlockData> RpcDataConnector::collect_block(
    chain::Height height) {
  BlockData data;
  data.height = height;
  const sim::TimePoint started = sched_.now();
  for (std::uint32_t page = 1;; ++page) {
    auto res =
        co_await server_.tx_search_height(machine_, height, page, per_page_);
    if (!res.is_ok()) break;
    ++data.pages;
    for (auto& tx : res.value().txs) data.txs.push_back(std::move(tx));
    if (data.txs.size() >= res.value().total_count) {
      data.ok = true;
      break;
    }
  }
  data.elapsed = sched_.now() - started;
  co_return data;
}

RpcDataConnector::BlockData RpcDataConnector::collect_block_blocking(
    chain::Height height, sim::TimePoint limit) {
  BlockData out;
  bool done = false;
  sim::spawn(collect_block(height), [&](BlockData d) {
    out = std::move(d);
    done = true;
  });
  while (!done && sched_.now() < limit) {
    if (!sched_.step()) break;
  }
  return out;
}

}  // namespace xcc
