// Substrate microbenchmarks (google-benchmark): hashing, Merkle trees,
// codecs, the KV store, the checker's store hook, packet-event emission and
// read-back, the DES scheduler and the serialized RPC queue.
// These measure the *simulator's* real CPU costs, useful for keeping the
// experiment harness fast.

#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "chain/store.hpp"
#include "chain/tx.hpp"
#include "cosmos/app.hpp"
#include "crypto/merkle.hpp"
#include "crypto/sha256.hpp"
#include "ibc/msgs.hpp"
#include "sim/scheduler.hpp"
#include "sim/service_queue.hpp"
#include "util/rng.hpp"
#include "xcc/bench_report.hpp"
#include "xcc/handshake.hpp"
#include "xcc/testbed.hpp"

namespace {

void BM_Sha256(benchmark::State& state) {
  util::Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(64 * 1024);

// Incremental hashing (reused Sha256 object, one update per chunk) vs the
// one-shot path above: the store and the wallets hash short multi-part
// inputs, so the per-finalize reset cost is the interesting number.
void BM_Sha256Incremental(benchmark::State& state) {
  util::Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  crypto::Sha256 hasher;
  for (auto _ : state) {
    hasher.update(data.data(), 40);  // length-prefix + key sized chunk
    hasher.update(data.data() + 40, data.size() - 40);
    benchmark::DoNotOptimize(hasher.finalize());  // finalize() auto-resets
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256Incremental)->Arg(64)->Arg(1024)->Arg(64 * 1024);

void BM_MerkleRoot(benchmark::State& state) {
  std::vector<util::Bytes> leaves;
  for (int i = 0; i < state.range(0); ++i) {
    leaves.push_back(util::to_bytes("leaf-" + std::to_string(i)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::merkle_root(leaves));
  }
}
BENCHMARK(BM_MerkleRoot)->Arg(16)->Arg(128)->Arg(1024);

void BM_MerkleProveVerify(benchmark::State& state) {
  std::vector<util::Bytes> leaves;
  for (int i = 0; i < state.range(0); ++i) {
    leaves.push_back(util::to_bytes("leaf-" + std::to_string(i)));
  }
  const crypto::Digest root = crypto::merkle_root(leaves);
  for (auto _ : state) {
    const auto proof = crypto::merkle_prove(leaves, 7 % leaves.size());
    benchmark::DoNotOptimize(
        crypto::merkle_verify(root, leaves[7 % leaves.size()], proof));
  }
}
BENCHMARK(BM_MerkleProveVerify)->Arg(16)->Arg(256);

void BM_TxEncodeDecode(benchmark::State& state) {
  chain::Tx tx;
  tx.sender = "user-42";
  tx.gas_limit = 4'000'000;
  tx.fee = 40'000;
  for (int i = 0; i < state.range(0); ++i) {
    ibc::MsgTransfer m;
    m.source_port = "transfer";
    m.source_channel = "channel-0";
    m.denom = "uatom";
    m.amount = 1;
    m.sender = "user-42";
    m.receiver = "recv-user-42";
    m.timeout_height = 100'000;
    tx.msgs.push_back(m.to_msg());
  }
  for (auto _ : state) {
    const util::Bytes enc = tx.encode();
    chain::Tx out;
    benchmark::DoNotOptimize(chain::decode_tx(enc, out));
  }
}
BENCHMARK(BM_TxEncodeDecode)->Arg(1)->Arg(100);

void BM_PacketCommitment(benchmark::State& state) {
  ibc::Packet p;
  p.sequence = 42;
  p.source_port = "transfer";
  p.source_channel = "channel-0";
  p.destination_port = "transfer";
  p.destination_channel = "channel-0";
  p.data = util::to_bytes(
      R"({"amount":"1","denom":"uatom","receiver":"r","sender":"s"})");
  p.timeout_height = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.commitment());
  }
}
BENCHMARK(BM_PacketCommitment);

void BM_KvStoreSet(benchmark::State& state) {
  chain::KvStore store;
  util::Rng rng(1);
  std::uint64_t i = 0;
  for (auto _ : state) {
    store.set("ibc/commitments/ports/transfer/channels/channel-0/sequences/" +
                  std::to_string(i % 10'000),
              util::to_bytes("0123456789abcdef0123456789abcdef"));
    ++i;
  }
}
BENCHMARK(BM_KvStoreSet);

// Overwriting existing keys is the store's hot path during block execution
// (sequence counters, commitments rewritten every block). This loop never
// reads the root, so it hashes nothing: the store hashes a written entry
// once, at the next root read (BM_KvStoreBlockCommit prices that).
void BM_KvStoreOverwrite(benchmark::State& state) {
  chain::KvStore store;
  for (int i = 0; i < 10'000; ++i) {
    store.set("ibc/commitments/ports/transfer/channels/channel-0/sequences/" +
                  std::to_string(i),
              util::to_bytes("0123456789abcdef0123456789abcdef"));
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    store.set("ibc/commitments/ports/transfer/channels/channel-0/sequences/" +
                  std::to_string(i % 10'000),
              util::to_bytes("fedcba9876543210fedcba9876543210"));
    ++i;
  }
}
BENCHMARK(BM_KvStoreOverwrite);

// Point lookups of pre-built keys, so the number is the key hash plus the
// index probe and key compare. The key shape sets how many bytes the hash
// walks: a bank balance key (29 bytes for a 4-digit user) or an ICS-24
// packet commitment key (a 60-byte prefix plus the sequence).
std::string bank_key(int i) {
  return "bank/balances/user-" + std::to_string(i) + "/uatom";
}
std::string commitment_key(int i) {
  return "ibc/commitments/ports/transfer/channels/channel-0/sequences/" +
         std::to_string(i);
}

void BM_KvStoreGet(benchmark::State& state, std::string (*key_of)(int)) {
  chain::KvStore store;
  std::vector<std::string> keys;
  for (int i = 0; i < 10'000; ++i) {
    keys.push_back(key_of(i));
    store.set(keys.back(), util::to_bytes("123456789"));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.get_view(keys[i % keys.size()]));
    ++i;
  }
}
BENCHMARK_CAPTURE(BM_KvStoreGet, bank_key, bank_key);
BENCHMARK_CAPTURE(BM_KvStoreGet, commitment_key, commitment_key);

// One block of 100 MsgTransfer-shaped write groups, then the root read of
// its Commit. A group writes what a transfer writes: the sender's balance
// (ten senders per block), the escrow balance, nextSequenceSend and a fresh
// packet commitment, so three of its four writes hit a key the block has
// already written.
void BM_KvStoreBlockCommit(benchmark::State& state) {
  chain::KvStore store;
  for (int i = 0; i < 10'000; ++i) {
    store.set(bank_key(i), util::to_bytes("12345678"));
  }
  const std::string escrow = bank_key(-1);  // a balance no user holds
  const std::string next_sequence_send =
      "nextSequenceSend/ports/transfer/channels/channel-0";
  const auto u64 = [](std::uint64_t v) {
    util::Bytes out;
    util::append_u64_be(out, v);
    return out;
  };
  std::uint64_t seq = 1;
  for (auto _ : state) {
    for (int group = 0; group < 100; ++group, ++seq) {
      store.set(bank_key(static_cast<int>(seq % 10)), u64(seq));
      store.set(escrow, u64(seq));
      store.set(next_sequence_send, u64(seq + 1));
      store.set(commitment_key(static_cast<int>(seq)),
                util::Bytes(32, static_cast<std::uint8_t>(seq)));
    }
    benchmark::DoNotOptimize(store.root());
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_KvStoreBlockCommit)->Unit(benchmark::kMicrosecond);

// Bulk genesis as the scale tier runs it: N accounts through
// CosmosApp::add_genesis_accounts (a sequence and a balance entry each,
// plus the supply), then the first root(), which folds every entry. The
// counters split the two: ns_per_insert over the entries written,
// ns_per_fold_entry over the entries folded.
void BM_KvStoreGenesisFold(benchmark::State& state) {
  std::vector<chain::Address> addrs;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    addrs.push_back("user-" + std::to_string(i));
  }
  double insert_ns = 0;
  double fold_ns = 0;
  double entries = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto app = std::make_unique<cosmos::CosmosApp>("chain-a");
    state.ResumeTiming();
    const auto t0 = std::chrono::steady_clock::now();
    app->add_genesis_accounts(addrs, 1'000'000);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(app->store().root());
    const auto t2 = std::chrono::steady_clock::now();
    insert_ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
    fold_ns += std::chrono::duration<double, std::nano>(t2 - t1).count();
    entries += static_cast<double>(app->store().size());
    state.PauseTiming();
    app.reset();
    state.ResumeTiming();
  }
  state.counters["ns_per_insert"] = insert_ns / entries;
  state.counters["ns_per_fold_entry"] = fold_ns / entries;
}
BENCHMARK(BM_KvStoreGenesisFold)
    ->Arg(1 << 17)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

// Churn: insert + erase keeps the store at a steady ~10k live entries while
// exercising tombstones, index deletion and the periodic compaction.
void BM_KvStoreErase(benchmark::State& state) {
  chain::KvStore store;
  for (int i = 0; i < 10'000; ++i) {
    store.set("ibc/commitments/" + std::to_string(i), util::to_bytes("c"));
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    store.set("ibc/commitments/" + std::to_string(10'000 + i),
              util::to_bytes("c"));
    store.erase("ibc/commitments/" + std::to_string(i));
    ++i;
  }
}
BENCHMARK(BM_KvStoreErase);

// Allocation-free prefix iteration vs the copying keys_with_prefix (both
// over a 1,000-entry module prefix inside a 21k-entry store).
void BM_KvStorePrefixScan(benchmark::State& state) {
  chain::KvStore store;
  for (int i = 0; i < 10'000; ++i) {
    store.set("bank/balances/user-" + std::to_string(i) + "/uatom",
              util::to_bytes("123456789"));
    store.set("auth/sequences/user-" + std::to_string(i),
              util::to_bytes("7"));
  }
  for (int i = 0; i < 1'000; ++i) {
    store.set("ibc/commitments/" + std::to_string(i), util::to_bytes("c"));
  }
  for (auto _ : state) {
    std::uint64_t bytes = 0;
    for (auto it = store.scan_prefix("ibc/commitments/"); it.next();) {
      bytes += it.value().size();
    }
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations() * 1'000);
}
BENCHMARK(BM_KvStorePrefixScan);

void BM_KvStoreKeysWithPrefix(benchmark::State& state) {
  chain::KvStore store;
  for (int i = 0; i < 10'000; ++i) {
    store.set("bank/balances/user-" + std::to_string(i) + "/uatom",
              util::to_bytes("123456789"));
    store.set("auth/sequences/user-" + std::to_string(i),
              util::to_bytes("7"));
  }
  for (int i = 0; i < 1'000; ++i) {
    store.set("ibc/commitments/" + std::to_string(i), util::to_bytes("c"));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.keys_with_prefix("ibc/commitments/"));
  }
  state.SetItemsProcessed(state.iterations() * 1'000);
}
BENCHMARK(BM_KvStoreKeysWithPrefix);

void BM_KvStoreProve(benchmark::State& state) {
  chain::KvStore store;
  for (int i = 0; i < 10'000; ++i) {
    store.set("k/" + std::to_string(i), util::to_bytes("v"));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.prove("k/5000"));
  }
}
BENCHMARK(BM_KvStoreProve);

// One BankKeeper::send (two balance overwrites) on a Testbed chain with the
// invariant checker off (checker:0) or on (checker:1). The difference is
// what the checker's store write hook costs every write of a checked run.
void BM_BankSend(benchmark::State& state) {
  xcc::TestbedConfig cfg;
  cfg.user_accounts = 1'000;
  cfg.invariant_checks = state.range(0) != 0;
  xcc::Testbed tb(cfg);
  cosmos::BankKeeper& bank = tb.chain_a().app->bank();
  const std::vector<chain::Address>& users = tb.user_accounts();
  std::size_t i = 0;
  for (auto _ : state) {
    const chain::Address& from = users[i % users.size()];
    const chain::Address& to = users[(i + 1) % users.size()];
    benchmark::DoNotOptimize(
        bank.send(from, to, cosmos::Coin{cosmos::kNativeDenom, 1}));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BankSend)->ArgName("checker")->Arg(0)->Arg(1);

// The packet-event emit-and-read path: one 100-msg MsgTransfer tx delivered
// on a Testbed chain with an open channel (the keeper emits 100 send_packet
// events), then every send_packet read back with ibc::packet_from_event, as
// the relayer's data pull does. Items are packets.
void BM_DeliverTransferTxReadPackets(benchmark::State& state) {
  constexpr int kMsgs = 100;
  xcc::TestbedConfig cfg;
  cfg.user_accounts = 1;
  cfg.invariant_checks = false;
  xcc::Testbed tb(cfg);
  tb.start_chains();
  tb.run_until_height(2, sim::seconds(120));
  xcc::HandshakeDriver driver(tb);
  const xcc::ChannelSetupResult channel = driver.establish_channel_blocking(
      tb.scheduler().now() + sim::seconds(600));
  if (!channel.ok) {
    state.SkipWithError("channel handshake failed");
    return;
  }
  cosmos::CosmosApp& app = *tb.chain_a().app;
  const chain::Address sender = tb.user_accounts().front();
  ibc::MsgTransfer t;
  t.source_port = ibc::kTransferPort;
  t.source_channel = channel.channel_a;
  t.denom = cosmos::kNativeDenom;
  t.amount = 1;
  t.sender = sender;
  t.receiver = "recv-" + sender;
  t.timeout_height = 1'000'000;
  chain::Tx tx;
  tx.sender = sender;
  tx.msgs.assign(kMsgs, t.to_msg());
  tx.gas_limit = 2 * (69'000 + 36'000 * kMsgs);
  tx.fee = tx.gas_limit;
  for (auto _ : state) {
    tx.sequence = app.auth().sequence(sender);
    const chain::DeliverTxResult res = app.deliver_tx(tx);
    int packets = 0;
    for (const chain::Event& ev : res.events) {
      if (ev.type != "send_packet") continue;
      const std::optional<ibc::Packet> p = ibc::packet_from_event(ev);
      benchmark::DoNotOptimize(p);
      packets += p.has_value() ? 1 : 0;
    }
    if (packets != kMsgs) {
      state.SkipWithError("tx did not emit one packet per msg");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() * kMsgs);
}
BENCHMARK(BM_DeliverTransferTxReadPackets)->Unit(benchmark::kMicrosecond);

void BM_SchedulerThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    int fired = 0;
    for (int i = 0; i < 10'000; ++i) {
      sched.schedule_at(sim::micros(i), [&fired] { ++fired; });
    }
    sched.run_until(sim::seconds(1));
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SchedulerThroughput);

// Timeout-style usage: most scheduled events are cancelled before firing
// (e.g. the consensus engine re-arming its round timer). The slab scheduler
// makes cancel O(1) and recycles slots instead of growing a live map.
void BM_SchedulerScheduleCancelFire(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    int fired = 0;
    for (int wave = 0; wave < 10; ++wave) {
      std::vector<sim::EventId> timeouts;
      timeouts.reserve(1'000);
      for (int i = 0; i < 1'000; ++i) {
        timeouts.push_back(sched.schedule_after(sim::millis(100),
                                                [&fired] { ++fired; }));
      }
      // 90% of the timeouts are cancelled before they fire.
      for (std::size_t i = 0; i < timeouts.size(); ++i) {
        if (i % 10 != 0) sched.cancel(timeouts[i]);
      }
      sched.run_until(sched.now() + sim::millis(200));
    }
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SchedulerScheduleCancelFire);

void BM_ServiceQueue(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    sim::ServiceQueue q(sched);
    int done = 0;
    for (int i = 0; i < 1'000; ++i) {
      q.enqueue(sim::micros(10), [&done] { ++done; });
    }
    sched.run_until(sim::seconds(1));
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * 1'000);
}
BENCHMARK(BM_ServiceQueue);

void BM_SignVerify(benchmark::State& state) {
  const crypto::KeyPair kp = crypto::derive_key_pair("bench-signer");
  const util::Bytes msg = util::to_bytes("precommit/chain/42");
  for (auto _ : state) {
    const crypto::Signature sig = crypto::sign(kp.priv, msg);
    benchmark::DoNotOptimize(crypto::verify(kp.pub, msg, sig));
  }
}
BENCHMARK(BM_SignVerify);

}  // namespace

// Console reporter that additionally captures each run for the --json
// report. Everything a microbenchmark measures is host time, so the capture
// lands in the report's nondeterministic "host" section (the virtual
// section stays empty — there is no simulation here).
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration) continue;
      auto row = util::json::Value::object();
      row.set("name", run.benchmark_name());
      row.set("iterations", static_cast<std::int64_t>(run.iterations));
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      row.set("real_ns_per_iter", run.real_accumulated_time * 1e9 / iters);
      row.set("cpu_ns_per_iter", run.cpu_accumulated_time * 1e9 / iters);
      results.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  util::json::Value results = util::json::Value::array();
};

// Custom main instead of BENCHMARK_MAIN(): run_benches.sh passes the shared
// harness flags (--jobs/--full/--reps/--csv/--trace/--json) to every bench;
// strip them so google-benchmark does not reject the command line. --json
// is honored: the captured runs are written as a BENCH report whose host
// section carries a "microbench" array.
int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--json" && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    if (a == "--jobs" || a == "--reps" || a == "--csv" || a == "--trace") {
      ++i;  // skip the flag's value too
      continue;
    }
    if (a == "--full") continue;
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!json_path.empty()) {
    xcc::BenchReportInputs in;
    in.bench = "micro_substrate";
    auto report = xcc::build_bench_report(in);
    for (auto& member : report.members()) {
      if (member.first == "host") {
        member.second.set("microbench", std::move(reporter.results));
      }
    }
    const util::Status st = xcc::write_json_file(json_path, report);
    if (!st.is_ok()) {
      std::cerr << "[json] FAILED: " << st.to_string() << "\n";
      return 1;
    }
    std::cout << "[json] wrote " << json_path << "\n";
  }
  return 0;
}
