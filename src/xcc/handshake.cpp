#include "xcc/handshake.hpp"

#include "ibc/host.hpp"

namespace xcc {

relayer::PathConfig ChannelSetupResult::path() const {
  relayer::PathConfig p;
  p.port = ibc::kTransferPort;
  p.channel_a = channel_a;
  p.channel_b = channel_b;
  p.client_on_a = client_on_a;
  p.client_on_b = client_on_b;
  return p;
}

namespace {

ibc::ClientState make_client_state(const chain::ChainId& chain_id,
                                   const chain::ValidatorSet& validators,
                                   sim::Duration trusting_period) {
  ibc::ClientState cs;
  cs.chain_id = chain_id;
  if (trusting_period > 0) cs.trusting_period = trusting_period;
  for (const chain::Validator& v : validators.validators()) {
    cs.validators.push_back(ibc::ClientValidator{v.keys.pub, v.power});
  }
  return cs;
}

util::Status failure(std::string message) {
  return util::Status::error(util::ErrorCode::kFailedPrecondition,
                             std::move(message));
}

// One end of the channel being opened: its chain, the full node the driver
// talks to there, and the wallet that submits there.
struct End {
  ChainDeployment& chain;
  rpc::Server& server;
  relayer::Wallet& wallet;
};

// Submits `msgs` through `end`'s wallet, then reads the committed tx's events
// and writes the named attribute of `event_type` to `out`.
sim::Task<util::Status> submit_and_read(
    net::MachineId machine, const End& end, std::vector<chain::Msg> msgs,
    std::string event_type, std::string attribute, std::string& out) {
  const std::uint64_t gas = 69'000 + 250'000 * msgs.size();
  const auto sub = co_await sim::callback<relayer::Wallet::SubmitOutcome>(
      [&](auto resume) {
        end.wallet.submit(std::move(msgs), gas, std::move(resume));
      });
  if (!sub.status.is_ok()) {
    co_return failure("handshake tx failed: " + sub.status.to_string());
  }
  const auto tx =
      co_await sim::callback<util::Result<rpc::TxResponse>>([&](auto resume) {
        end.server.query_tx(machine, sub.hash, std::move(resume));
      });
  if (!tx.is_ok()) co_return failure("cannot read handshake tx events");
  for (const chain::Event& ev : tx.value().result.events) {
    if (ev.type != event_type) continue;
    out = ev.attribute(attribute);
    if (!out.empty()) co_return util::Status::ok();
  }
  co_return failure("missing " + event_type + " event");
}

// Creates, through `on`, a client of the other end `of`, initialized from
// `of`'s current head; writes its id to `out`.
sim::Task<util::Status> create_client(
    net::MachineId machine, const End& on, const End& of,
    sim::Duration trusting_period, const char* fetch_error, std::string& out) {
  const auto head =
      co_await sim::callback<rpc::Server::StatusInfo>([&](auto resume) {
        of.server.status(machine, std::move(resume));
      });
  const auto res =
      co_await sim::callback<util::Result<rpc::Server::HeaderInfo>>(
          [&](auto resume) {
            of.server.query_header(machine, head.height, std::move(resume));
          });
  if (!res.is_ok()) co_return failure(fetch_error);
  ibc::MsgCreateClient msg;
  msg.client_state = make_client_state(
      of.chain.id, of.chain.engine->validators(), trusting_period);
  msg.initial_height = res.value().header.height;
  msg.initial_consensus.app_hash = res.value().app_hash_after;
  msg.initial_consensus.timestamp = res.value().header.time;
  msg.initial_consensus.validators_hash = res.value().header.validators_hash;
  std::vector<chain::Msg> msgs = {msg.to_msg()};
  co_return co_await submit_and_read(machine, on, std::move(msgs),
                                     "create_client", "client_id", out);
}

// Proves `key` on `src` at height H, sets `msg`'s proof (the `proof` member)
// and proof height, then submits through `dst` the update of `dst`'s client
// of `src` to H followed by `msg`, reading the named attribute of
// `event_type` into `out`.
template <typename Msg>
sim::Task<util::Status> prove_and_submit(
    net::MachineId machine, const End& src, const End& dst,
    const ibc::ClientId& client_on_dst, std::string key, Msg msg,
    chain::StoreProof Msg::*proof, std::string event_type,
    std::string attribute, std::string& out) {
  const auto res =
      co_await sim::callback<util::Result<rpc::Server::AbciQueryResult>>(
          [&](auto resume) {
            src.server.abci_query(machine, key, /*prove=*/true,
                                  std::move(resume));
          });
  if (!res.is_ok()) {
    co_return failure("proof query failed: " + res.status().to_string());
  }
  msg.*proof = res.value().proof;
  msg.proof_height = res.value().height;
  const auto header =
      co_await sim::callback<util::Result<rpc::Server::HeaderInfo>>(
          [&](auto resume) {
            src.server.query_header(machine, msg.proof_height,
                                    std::move(resume));
          });
  if (!header.is_ok()) co_return failure("header query failed");
  std::vector<chain::Msg> msgs = {
      relayer::update_client_msg(client_on_dst, header.value()), msg.to_msg()};
  co_return co_await submit_and_read(machine, dst, std::move(msgs),
                                     std::move(event_type),
                                     std::move(attribute), out);
}

}  // namespace

// The eleven steps, in order; the first failure ends the handshake.
sim::Task<util::Status> HandshakeDriver::open(ChannelSetupResult& r) {
  const auto end = [this](int chain, relayer::Wallet& wallet) {
    ChainDeployment& c = testbed_.chain(chain);
    return End{c, *c.servers[static_cast<std::size_t>(machine_)], wallet};
  };
  const End a = end(chain_x_, *wallet_a_);
  const End b = end(chain_y_, *wallet_b_);
  const net::MachineId m = machine_;
  std::string ignored;

  // ICS-02: a client of each chain on the other.
  util::Status st = co_await create_client(m, a, b, trusting_period_,
                                           "cannot fetch B header",
                                           r.client_on_a);
  if (!st.is_ok()) co_return st;
  st = co_await create_client(m, b, a, trusting_period_,
                              "cannot fetch A header", r.client_on_b);
  if (!st.is_ok()) co_return st;

  // ICS-03: the four-step connection handshake.
  ibc::MsgConnOpenInit conn_init;
  conn_init.client_id = r.client_on_a;
  conn_init.counterparty_client_id = r.client_on_b;
  std::vector<chain::Msg> init = {conn_init.to_msg()};
  st = co_await submit_and_read(m, a, std::move(init), "connection_open_init",
                                "connection_id", r.connection_a);
  if (!st.is_ok()) co_return st;
  ibc::MsgConnOpenTry conn_try;
  conn_try.client_id = r.client_on_b;
  conn_try.counterparty_client_id = r.client_on_a;
  conn_try.counterparty_connection = r.connection_a;
  st = co_await prove_and_submit(
      m, a, b, r.client_on_b, ibc::host::connection_key(r.connection_a),
      conn_try, &ibc::MsgConnOpenTry::proof_init, "connection_open_try",
      "connection_id", r.connection_b);
  if (!st.is_ok()) co_return st;
  ibc::MsgConnOpenAck conn_ack;
  conn_ack.connection_id = r.connection_a;
  conn_ack.counterparty_connection = r.connection_b;
  st = co_await prove_and_submit(
      m, b, a, r.client_on_a, ibc::host::connection_key(r.connection_b),
      conn_ack, &ibc::MsgConnOpenAck::proof_try, "connection_open_ack",
      "connection_id", ignored);
  if (!st.is_ok()) co_return st;
  ibc::MsgConnOpenConfirm conn_confirm;
  conn_confirm.connection_id = r.connection_b;
  st = co_await prove_and_submit(
      m, a, b, r.client_on_b, ibc::host::connection_key(r.connection_a),
      conn_confirm, &ibc::MsgConnOpenConfirm::proof_ack,
      "connection_open_confirm", "connection_id", ignored);
  if (!st.is_ok()) co_return st;

  // ICS-04: the four-step channel handshake.
  ibc::MsgChanOpenInit chan_init;
  chan_init.port = ibc::kTransferPort;
  chan_init.connection = r.connection_a;
  chan_init.counterparty_port = ibc::kTransferPort;
  chan_init.ordering = ordering_;
  chan_init.version = "ics20-1";
  init = {chan_init.to_msg()};
  st = co_await submit_and_read(m, a, std::move(init), "channel_open_init",
                                "channel_id", r.channel_a);
  if (!st.is_ok()) co_return st;
  ibc::MsgChanOpenTry chan_try;
  chan_try.port = ibc::kTransferPort;
  chan_try.connection = r.connection_b;
  chan_try.counterparty_port = ibc::kTransferPort;
  chan_try.counterparty_channel = r.channel_a;
  chan_try.ordering = ordering_;
  chan_try.version = "ics20-1";
  st = co_await prove_and_submit(
      m, a, b, r.client_on_b,
      ibc::host::channel_key(ibc::kTransferPort, r.channel_a), chan_try,
      &ibc::MsgChanOpenTry::proof_init, "channel_open_try", "channel_id",
      r.channel_b);
  if (!st.is_ok()) co_return st;
  ibc::MsgChanOpenAck chan_ack;
  chan_ack.port = ibc::kTransferPort;
  chan_ack.channel = r.channel_a;
  chan_ack.counterparty_channel = r.channel_b;
  st = co_await prove_and_submit(
      m, b, a, r.client_on_a,
      ibc::host::channel_key(ibc::kTransferPort, r.channel_b), chan_ack,
      &ibc::MsgChanOpenAck::proof_try, "channel_open_ack", "channel_id",
      ignored);
  if (!st.is_ok()) co_return st;
  ibc::MsgChanOpenConfirm chan_confirm;
  chan_confirm.port = ibc::kTransferPort;
  chan_confirm.channel = r.channel_b;
  co_return co_await prove_and_submit(
      m, a, b, r.client_on_b,
      ibc::host::channel_key(ibc::kTransferPort, r.channel_a), chan_confirm,
      &ibc::MsgChanOpenConfirm::proof_ack, "channel_open_confirm",
      "channel_id", ignored);
}

HandshakeDriver::HandshakeDriver(Testbed& testbed, int relayer_wallet,
                                 net::MachineId machine,
                                 sim::Duration trusting_period, int chain_x,
                                 int chain_y, ibc::ChannelOrdering ordering)
    : testbed_(testbed),
      machine_(machine),
      trusting_period_(trusting_period),
      chain_x_(chain_x),
      chain_y_(chain_y),
      ordering_(ordering) {
  if (chain_x < 0 || chain_x >= testbed.chain_count() || chain_y < 0 ||
      chain_y >= testbed.chain_count() || chain_x == chain_y) {
    init_error_ = "handshake references unknown chain pair (" +
                  std::to_string(chain_x) + ", " + std::to_string(chain_y) +
                  ") in a " + std::to_string(testbed.chain_count()) +
                  "-chain testbed";
    return;
  }
  relayer::WalletConfig wc;
  wc.optimistic_sequencing = false;  // handshakes wait for each commit
  wc.confirm_timeout = sim::seconds(60);
  wc.accounts = {testbed.relayer_account(chain_x, relayer_wallet)};
  wallet_a_ = std::make_unique<relayer::Wallet>(
      testbed.scheduler(),
      *testbed.chain(chain_x).servers[static_cast<std::size_t>(machine)],
      machine, wc);
  wc.accounts = {testbed.relayer_account(chain_y, relayer_wallet)};
  wallet_b_ = std::make_unique<relayer::Wallet>(
      testbed.scheduler(),
      *testbed.chain(chain_y).servers[static_cast<std::size_t>(machine)],
      machine, wc);
}

HandshakeDriver::~HandshakeDriver() = default;

sim::Task<ChannelSetupResult> HandshakeDriver::establish_channel() {
  ChannelSetupResult r;
  r.chain_x = chain_x_;
  r.chain_y = chain_y_;
  r.error = init_error_;
  if (r.error.empty()) r.error = (co_await open(r)).message();
  r.ok = r.error.empty();
  co_return r;
}

ChannelSetupResult HandshakeDriver::establish_channel_blocking(
    sim::TimePoint limit) {
  ChannelSetupResult result;
  bool done = false;
  sim::spawn(establish_channel(), [&](ChannelSetupResult r) {
    result = std::move(r);
    done = true;
  });
  sim::Scheduler& sched = testbed_.scheduler();
  while (!done && sched.now() < limit) {
    if (!sched.step()) break;
  }
  if (!done) {
    result.ok = false;
    result.error = "handshake did not complete before limit";
  }
  return result;
}

}  // namespace xcc
