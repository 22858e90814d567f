#include "check/campaign.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "cosmos/coin.hpp"
#include "crypto/sha256.hpp"
#include "ibc/host.hpp"
#include "ibc/msgs.hpp"
#include "util/rng.hpp"
#include "xcc/handshake.hpp"
#include "xcc/testbed.hpp"
#include "xcc/workload.hpp"

namespace check {

bool campaign_family_known(const std::string& family) {
  for (const char* f : kCampaignFamilies) {
    if (family == f) return true;
  }
  return false;
}

std::string CampaignResult::csv() const {
  std::string s =
      "family,seed,setup_ok,blocks_a,blocks_b,blocks_checked,transfers,"
      "received,acked,timed_out,redundant,censored,frames_failed,evidence,"
      "abandoned,outstanding,violations,app_hash_a,app_hash_b\n";
  s += family + "," + std::to_string(seed) + "," + (setup_ok ? "1" : "0") +
       "," + std::to_string(blocks_a) + "," + std::to_string(blocks_b) + "," +
       std::to_string(blocks_checked) + "," +
       std::to_string(transfers_requested) + "," +
       std::to_string(packets_received) + "," +
       std::to_string(packets_acknowledged) + "," +
       std::to_string(packets_timed_out) + "," +
       std::to_string(redundant_messages) + "," +
       std::to_string(censored_txs) + "," + std::to_string(frames_failed) +
       "," + std::to_string(evidence_committed) + "," +
       std::to_string(abandoned_packets) + "," +
       std::to_string(outstanding_commitments) + "," +
       std::to_string(violations.size()) + "," + app_hash_a + "," +
       app_hash_b + "\n";
  for (const CampaignPhase& p : phases) {
    s += "phase," + p.name + "," + std::to_string(p.at) + "," +
         std::to_string(p.height_a) + "," + std::to_string(p.height_b) + "," +
         (p.ok ? "ok" : "FAIL") + "," + p.detail + "\n";
  }
  for (const Violation& v : violations) {
    s += "violation," + v.invariant + "," + v.chain + "," +
         std::to_string(v.height) + "\n";
  }
  return s;
}

namespace {

constexpr sim::Duration kSecond = sim::seconds(1);

/// Reconstructs the light-client Header for committed block `h` from the
/// ledger (what a full node serves to a relayer's header query).
ibc::Header header_at(const chain::Ledger& ledger, chain::Height h) {
  ibc::Header hdr;
  const chain::Block* blk = ledger.block_at(h);
  const chain::Commit* commit = ledger.seen_commit(h);
  const crypto::Digest* app_hash = ledger.app_hash_after(h);
  if (!blk || !commit || !app_hash) return hdr;  // height stays 0 => invalid
  hdr.chain_id = ledger.chain_id();
  hdr.height = h;
  hdr.time = blk->header.time;
  hdr.app_hash_after = *app_hash;
  hdr.validators_hash = blk->header.validators_hash;
  hdr.block_id = blk->id();
  hdr.commit = *commit;
  return hdr;
}

class CampaignRun {
 public:
  explicit CampaignRun(const CampaignOptions& opts) : opts_(opts) {}

  CampaignResult run();

 private:
  sim::TimePoint now() const { return tb_->scheduler().now(); }

  /// One guarded scheduler step; an InvariantViolation (fail_fast mode)
  /// aborts the campaign and is recorded like any other violation.
  bool step_guarded() {
    try {
      return tb_->scheduler().step();
    } catch (const InvariantViolation& v) {
      result_.violations.push_back(v.violation);
      aborted_ = true;
      return false;
    }
  }

  bool run_to(sim::TimePoint t) {
    while (!aborted_ && now() < t) {
      if (!step_guarded()) break;
    }
    return !aborted_;
  }

  bool run_to_heights(chain::Height h, sim::TimePoint limit) {
    while (!aborted_ && now() < limit) {
      if (tb_->chain_a().ledger->height() >= h &&
          tb_->chain_b().ledger->height() >= h) {
        return true;
      }
      if (!step_guarded()) break;
    }
    return !aborted_ && tb_->chain_a().ledger->height() >= h &&
           tb_->chain_b().ledger->height() >= h;
  }

  CampaignPhase make_phase(std::string name) {
    CampaignPhase p;
    p.name = std::move(name);
    p.at = now();
    p.height_a = tb_->chain_a().ledger->height();
    p.height_b = tb_->chain_b().ledger->height();
    return p;
  }

  void commit_phase(CampaignPhase p) {
    if (auto* f = telemetry::flight(tb_->hub())) {
      f->record(now(), "campaign",
                "phase " + p.name + (p.ok ? " ok" : " FAILED") +
                    (p.detail.empty() ? "" : " (" + p.detail + ")"));
    }
    result_.phases.push_back(std::move(p));
  }

  /// Campaign-level expectation: a failure marks the phase and records a
  /// `campaign-expectation/<what>` violation (what --expect-violation runs
  /// count).
  void expect(CampaignPhase& p, bool cond, const std::string& what,
              const std::string& detail) {
    if (cond) return;
    p.ok = false;
    p.detail = p.detail.empty() ? detail : p.detail + "; " + detail;
    Violation v;
    v.invariant = "campaign-expectation/" + what;
    v.chain = "campaign";
    v.height = tb_->chain_a().ledger->height();
    v.detail = p.name + ": " + detail;
    result_.violations.push_back(std::move(v));
    // A failed campaign phase is a flight-dump trigger (first one wins), so
    // the post-mortem shows what led into the first broken expectation.
    if (telemetry::metrics(tb_->hub()) != nullptr) {
      tb_->hub()->trigger_flight_dump("campaign-phase:" + what, now());
    }
  }

  /// Submits `msgs` through the given probe wallet and runs the simulation
  /// until the outcome resolves (or a deadline passes).
  relayer::Wallet::SubmitOutcome probe_submit(relayer::Wallet& wallet,
                                              std::vector<chain::Msg> msgs,
                                              std::uint64_t gas) {
    auto resolved = std::make_shared<bool>(false);
    auto out = std::make_shared<relayer::Wallet::SubmitOutcome>();
    sim::spawn(wallet.submit(std::move(msgs), gas),
               [resolved, out](const relayer::Wallet::SubmitOutcome& o) {
                 *out = o;
                 *resolved = true;
               });
    const sim::TimePoint deadline = now() + sim::seconds(120);
    while (!aborted_ && !*resolved && now() < deadline) {
      if (!step_guarded()) break;
    }
    if (!*resolved) {
      out->status = util::Status::error(util::ErrorCode::kTimeout,
                                        "probe tx never resolved");
    }
    return *out;
  }

  void start_relayers(int count, const relayer::RelayerConfig& base) {
    for (int k = 0; k < count; ++k) {
      const auto machine =
          static_cast<std::size_t>(k % tb_->config().machines);
      relayer::ChainHandle ha{tb_->chain_a().servers[machine].get(),
                              tb_->chain_a().id,
                              {tb_->relayer_account_a(k)}};
      relayer::ChainHandle hb{tb_->chain_b().servers[machine].get(),
                              tb_->chain_b().id,
                              {tb_->relayer_account_b(k)}};
      relayer::RelayerConfig rc = base;
      rc.machine = static_cast<net::MachineId>(machine);
      relayers_.push_back(std::make_unique<relayer::Relayer>(
          tb_->scheduler(), ha, hb, channel_.path(), rc, nullptr));
      // No-op without telemetry; with it the relayer's counters land in the
      // sampled series and its steps in the flight journal.
      relayers_.back()->set_telemetry(tb_->hub(),
                                      "relayer" + std::to_string(k));
      relayers_.back()->start();
    }
  }

  std::uint64_t outstanding_commitments() const {
    return tb_->chain_a()
        .app->store()
        .keys_with_prefix(ibc::host::packet_commitment_prefix(
            channel_.path().port, channel_.channel_a))
        .size();
  }

  /// Governance recovery message for one side's client. `which` = 0 recovers
  /// the client of chain A hosted on B; 1 recovers the client of B on A.
  ibc::MsgRecoverClient make_recovery(int which) const {
    const xcc::ChainDeployment& cp =
        which == 0 ? tb_->chain_a() : tb_->chain_b();
    const chain::Height h = cp.ledger->height();
    ibc::MsgRecoverClient msg;
    msg.subject_client_id =
        which == 0 ? channel_.client_on_b : channel_.client_on_a;
    ibc::ClientState cs;
    cs.chain_id = cp.id;
    cs.latest_height = static_cast<std::int64_t>(h);
    if (trusting_ > 0) cs.trusting_period = trusting_;
    for (const chain::Validator& v : cp.engine->validators().validators()) {
      cs.validators.push_back(ibc::ClientValidator{v.keys.pub, v.power});
    }
    msg.substitute_state = std::move(cs);
    msg.substitute_height = static_cast<std::int64_t>(h);
    ibc::ConsensusState cons;
    cons.app_hash = *cp.ledger->app_hash_after(h);
    cons.timestamp = cp.ledger->block_at(h)->header.time;
    cons.validators_hash = cp.ledger->block_at(h)->header.validators_hash;
    msg.substitute_consensus = cons;
    return msg;
  }

  bool client_frozen(const xcc::ChainDeployment& host,
                     const ibc::ClientId& id) const {
    auto res = host.ibc->clients().client_state(id);
    return res.is_ok() && res.value().frozen;
  }

  // --- family timelines ---------------------------------------------------
  void family_halt_restart(util::Rng& rng);
  void family_client_expiry(util::Rng& rng);
  void family_client_freeze(util::Rng& rng);
  void family_relayer_crash(util::Rng& rng);
  void family_censorship(util::Rng& rng);
  void family_frame_storm(util::Rng& rng);

  void submit_transfer_storm(int txs, int msgs_per_tx);
  void drain_and_finish();

  CampaignOptions opts_;
  CampaignResult result_;
  std::unique_ptr<xcc::Testbed> tb_;
  xcc::ChannelSetupResult channel_;
  std::vector<std::unique_ptr<relayer::Relayer>> relayers_;
  std::unique_ptr<xcc::TransferWorkload> workload_;
  std::unique_ptr<relayer::Wallet> probe_a_;  // spare wallet on chain A
  std::unique_ptr<relayer::Wallet> probe_b_;  // spare wallet on chain B
  chain::Address probe_addr_a_;               // probe_a_'s funded account
  sim::Duration trusting_ = 0;  // client trusting-period override
  bool aborted_ = false;
};

CampaignResult CampaignRun::run() {
  result_.family = opts_.family;
  result_.seed = opts_.seed;
  if (!campaign_family_known(opts_.family)) {
    result_.setup_error = "unknown campaign family: " + opts_.family;
    return result_;
  }

  // All jitter in the fault timeline derives from this stream; the testbed's
  // own RNGs derive from the same seed, so the whole campaign is
  // reproducible from (family, seed, options) alone.
  util::Rng rng(opts_.seed ^ 0xC4A7A160000F00DULL);

  const int n_relayers = 1;

  xcc::TestbedConfig cfg;
  cfg.seed = opts_.seed;
  cfg.rtt = sim::millis(50);
  // 1 s blocks keep >= 1000-block horizons around ~1000 virtual seconds.
  cfg.min_block_interval = kSecond;
  cfg.user_accounts = 32;
  cfg.relayer_wallets = n_relayers + 1;  // last wallet pair = campaign probes
  cfg.invariant_checks = true;
  cfg.invariant_fail_fast = opts_.fail_fast;
  if (opts_.family == "frame-storm") {
    // The §V cliff scaled to campaign-sized blocks: steady traffic stays
    // far below it, storm blocks sail over it.
    cfg.rpc_cost.websocket_max_frame_bytes = 16 * 1024;
  }
  if (opts_.family == "client-expiry") trusting_ = sim::seconds(180);
  const bool observability =
      !opts_.flight_dump_path.empty() || opts_.sample_every_blocks > 0;
  cfg.telemetry = cfg.telemetry || observability;

  tb_ = std::make_unique<xcc::Testbed>(cfg);
  if (opts_.on_testbed) opts_.on_testbed(*tb_);
  if (!opts_.flight_dump_path.empty() &&
      telemetry::metrics(tb_->hub()) != nullptr) {
    tb_->hub()->flight().arm(opts_.flight_capacity);
    tb_->hub()->set_flight_dump_path(opts_.flight_dump_path);
  }
  if (opts_.sample_every_blocks > 0) {
    if (auto* smp = telemetry::sampler(tb_->hub())) {
      // Campaign probe: the chain-side backlog the drain phase asserts on.
      // Guarded because samples can fire before the channel handshake lands.
      smp->add_probe("probe.src.outstanding_commitments", [this] {
        return channel_.ok
                   ? static_cast<double>(outstanding_commitments())
                   : 0.0;
      });
      // Per-block cadence: sample on every Nth source-chain commit, then
      // evaluate the watchdogs on the same rows.
      tb_->chain_a().engine->subscribe_block(
          [this, smp](const chain::Block& block,
                      const std::vector<chain::DeliverTxResult>&) {
            if (static_cast<std::uint64_t>(block.header.height) %
                    opts_.sample_every_blocks !=
                0) {
              return;
            }
            smp->sample(now());
            if (auto* wd = telemetry::watchdog(tb_->hub())) {
              wd->evaluate(now());
            }
          });
      if (auto* wd = telemetry::watchdog(tb_->hub())) {
        // Zero-progress window: commitments pile up while the fleet relays
        // nothing — the campaign-scale stall signature.
        wd->watch_stuck("probe.src.outstanding_commitments",
                        "relayer0.packets_relayed", 20);
      }
    }
  }
  tb_->start_chains();
  if (!tb_->run_until_height(2, sim::seconds(300))) {
    result_.setup_error = "chains failed to start";
    return result_;
  }
  xcc::HandshakeDriver handshake(*tb_, /*relayer_wallet=*/0, /*machine=*/0,
                                 trusting_);
  channel_ = handshake.establish_channel_blocking(now() + sim::seconds(600));
  if (!channel_.ok) {
    result_.setup_error = "channel setup failed: " + channel_.error;
    return result_;
  }
  result_.setup_ok = true;

  if (opts_.mutate_skip_expiry || opts_.mutate_skip_replay) {
    ibc::KeeperFaults faults;
    faults.skip_replay_check = opts_.mutate_skip_replay;
    faults.skip_expiry_check = opts_.mutate_skip_expiry;
    tb_->chain_a().ibc->set_faults(faults);
    tb_->chain_b().ibc->set_faults(faults);
  }

  // Probe wallets (one per chain) for campaign-driven governance and storm
  // transactions, on the spare funded relayer accounts.
  relayer::WalletConfig pa;
  probe_addr_a_ = tb_->relayer_account_a(n_relayers);
  pa.accounts = {probe_addr_a_};
  probe_a_ = std::make_unique<relayer::Wallet>(
      tb_->scheduler(), *tb_->chain_a().servers[0], 0, pa);
  relayer::WalletConfig pb;
  pb.accounts = {tb_->relayer_account_b(n_relayers)};
  probe_b_ = std::make_unique<relayer::Wallet>(
      tb_->scheduler(), *tb_->chain_b().servers[0], 0, pb);

  // Relayer deployment. Campaigns always clear (recovery from every fault
  // family rides on it) and never abandon packets — the drain phase is the
  // survival criterion, so bounded give-up would mask real losses.
  relayer::RelayerConfig rc;
  rc.clear_interval = 5;
  rc.max_submit_failures = 1'000'000;
  if (opts_.family == "client-expiry" || opts_.family == "relayer-crash" ||
      opts_.family == "frame-storm") {
    rc.startup_rescan = true;
  }
  start_relayers(n_relayers, rc);

  // Steady cross-chain traffic covering the whole horizon. Rate mode's
  // emergent pace is accounts * msgs_per_tx per block (wait-for-commit), so
  // msgs_per_tx must equal requests_per_second * block_interval for the
  // traffic to actually span duration_blocks — otherwise it front-loads and
  // the fault windows land on a quiet channel.
  xcc::WorkloadConfig wl;
  wl.requests_per_second = 2.0;
  wl.duration_blocks = static_cast<int>(opts_.min_blocks);
  wl.msgs_per_tx = 2;
  wl.transfer_amount = 7;
  wl.timeout_height_offset = 100'000;
  workload_ = std::make_unique<xcc::TransferWorkload>(*tb_, channel_, wl,
                                                      nullptr);
  workload_->start();

  if (opts_.family == "halt-restart") {
    family_halt_restart(rng);
  } else if (opts_.family == "client-expiry") {
    family_client_expiry(rng);
  } else if (opts_.family == "client-freeze") {
    family_client_freeze(rng);
  } else if (opts_.family == "relayer-crash") {
    family_relayer_crash(rng);
  } else if (opts_.family == "censorship") {
    family_censorship(rng);
  } else {
    family_frame_storm(rng);
  }

  drain_and_finish();
  return result_;
}

// --- halt-restart: coordinated outage of each chain, state survival -------

void CampaignRun::family_halt_restart(util::Rng& rng) {
  const sim::TimePoint t0 = now();
  run_to(t0 + (120 + rng.next_below(30)) * kSecond);

  for (int which = 1; which >= 0; --which) {  // B first, then the source
    if (aborted_) return;
    const char* tag = which == 0 ? "a" : "b";
    xcc::ChainDeployment& c = which == 0 ? tb_->chain_a() : tb_->chain_b();

    CampaignPhase halt = make_phase(std::string("halt-") + tag);
    const chain::Height h_halt = c.ledger->height();
    const std::size_t mempool_at_halt = c.mempool->size();
    tb_->halt_chain(which);
    halt.detail = "height=" + std::to_string(h_halt) +
                  " mempool=" + std::to_string(mempool_at_halt);
    commit_phase(std::move(halt));

    run_to(now() + (90 + rng.next_below(30)) * kSecond);

    CampaignPhase restart = make_phase(std::string("restart-") + tag);
    const chain::Height h_down = c.ledger->height();
    // stop() finishes the in-flight height, so at most one more block may
    // have landed after the halt; anything beyond means the halt failed.
    expect(restart, h_down <= h_halt + 1, "halted-chain-advanced",
           "chain " + c.id + " advanced from " + std::to_string(h_halt) +
               " to " + std::to_string(h_down) + " while halted");
    tb_->restart_chain(which);
    run_to(now() + 30 * kSecond);
    expect(restart, c.ledger->height() > h_down, "chain-resumed",
           "chain " + c.id + " did not resume after restart");
    restart.detail = "resumed at height " +
                     std::to_string(c.ledger->height()) + " mempool=" +
                     std::to_string(c.mempool->size());
    commit_phase(std::move(restart));

    run_to(now() + (90 + rng.next_below(30)) * kSecond);
  }
}

// --- client-expiry: trusting-period lapse, probe, governance recovery -----

void CampaignRun::family_client_expiry(util::Rng& rng) {
  const sim::TimePoint t0 = now();
  run_to(t0 + (90 + rng.next_below(20)) * kSecond);
  if (aborted_) return;

  CampaignPhase down = make_phase("relayers-down");
  for (auto& r : relayers_) r->stop();
  commit_phase(std::move(down));

  // No client updates for well past the 180 s trusting period.
  run_to(now() + 240 * kSecond);
  if (aborted_) return;

  // Probe: a perfectly valid, fresh header must now be rejected, because
  // the client's tracked head is older than the trusting period. Under
  // --mutate=skip-expiry-check the update wrongly succeeds and this
  // expectation converts the planted bug into a recorded violation.
  CampaignPhase probe = make_phase("expiry-probe");
  ibc::MsgUpdateClient update;
  update.client_id = channel_.client_on_b;
  update.header =
      header_at(*tb_->chain_a().ledger, tb_->chain_a().ledger->height());
  relayer::Wallet::SubmitOutcome out =
      probe_submit(*probe_b_, {update.to_msg()}, 2'000'000);
  const bool rejected_expired =
      !out.status.is_ok() &&
      out.status.to_string().find("expired") != std::string::npos;
  expect(probe, rejected_expired, "expired-client-accepted-update",
         "MsgUpdateClient on expired client returned: " +
             out.status.to_string());
  probe.detail = out.status.to_string();
  commit_phase(std::move(probe));
  if (aborted_) return;

  // Governance recovery of both clients (each chain hosts one).
  CampaignPhase recover = make_phase("recover-clients");
  relayer::Wallet::SubmitOutcome rec_b =
      probe_submit(*probe_b_, {make_recovery(0).to_msg()}, 2'000'000);
  relayer::Wallet::SubmitOutcome rec_a =
      probe_submit(*probe_a_, {make_recovery(1).to_msg()}, 2'000'000);
  if (!opts_.mutate_skip_expiry) {
    // (Under the mutation the keeper believes the clients never expired and
    // correctly refuses to recover "active" clients — not an expectation.)
    expect(recover, rec_b.status.is_ok(), "client-recovery",
           "recover client_on_b failed: " + rec_b.status.to_string());
    expect(recover, rec_a.status.is_ok(), "client-recovery",
           "recover client_on_a failed: " + rec_a.status.to_string());
  }
  recover.detail = "b=" + rec_b.status.to_string() +
                   " a=" + rec_a.status.to_string();
  commit_phase(std::move(recover));
  if (aborted_) return;

  // Restart the relayers; startup_rescan re-hydrates everything that was
  // sent into the dark window from chain state.
  CampaignPhase up = make_phase("relayers-up");
  for (auto& r : relayers_) r->start();
  commit_phase(std::move(up));
}

// --- client-freeze: equivocation evidence, frozen client, recovery --------

void CampaignRun::family_client_freeze(util::Rng& rng) {
  const sim::TimePoint t0 = now();
  run_to(t0 + (90 + rng.next_below(20)) * kSecond);
  if (aborted_) return;

  // A Byzantine validator on A double-signs; the evidence reaches A's own
  // blocks (Tendermint's evidence pipeline).
  CampaignPhase evid = make_phase("equivocation");
  const std::size_t byz =
      1 + rng.next_below(static_cast<std::uint64_t>(
              tb_->chain_a().engine->validators().size() - 1));
  tb_->chain_a().engine->report_equivocation(byz);
  run_to(now() + 10 * kSecond);
  expect(evid, tb_->chain_a().engine->evidence_committed() > 0,
         "evidence-committed",
         "duplicate-vote evidence was not committed on chain A");
  evid.detail = "validator=" + std::to_string(byz) + " committed=" +
                std::to_string(tb_->chain_a().engine->evidence_committed());
  commit_phase(std::move(evid));
  if (aborted_) return;

  // The same fork, presented to B's light client of A as two conflicting
  // +2/3-signed headers for one height, freezes the client (ICS-02
  // misbehaviour).
  CampaignPhase freeze = make_phase("freeze-client");
  const chain::Height fork_h = tb_->chain_a().ledger->height();
  ibc::Header real = header_at(*tb_->chain_a().ledger, fork_h);
  ibc::Header forged = real;
  forged.block_id.hash = crypto::sha256(
      util::to_bytes("campaign-fork/" + crypto::digest_hex(real.block_id.hash)));
  forged.app_hash_after =
      crypto::sha256(util::to_bytes("campaign-fork-app/" +
                                    crypto::digest_hex(real.app_hash_after)));
  forged.commit.block_id = forged.block_id;
  const util::Bytes sign_bytes =
      chain::vote_sign_bytes(real.chain_id, forged.commit.height,
                             forged.commit.round, forged.commit.block_id);
  forged.commit.signatures.clear();
  for (const chain::Validator& v :
       tb_->chain_a().engine->validators().validators()) {
    chain::CommitSig sig;
    sig.flag = chain::BlockIdFlag::kCommit;
    sig.validator = v.keys.pub;
    sig.timestamp = real.time;
    sig.signature = crypto::sign(v.keys.priv, sign_bytes);
    forged.commit.signatures.push_back(sig);
  }
  ibc::MsgSubmitMisbehaviour mis;
  mis.client_id = channel_.client_on_b;
  mis.header_1 = real;
  mis.header_2 = forged;
  relayer::Wallet::SubmitOutcome out =
      probe_submit(*probe_b_, {mis.to_msg()}, 2'000'000);
  expect(freeze, out.status.is_ok(), "misbehaviour-accepted",
         "MsgSubmitMisbehaviour failed: " + out.status.to_string());
  expect(freeze, client_frozen(tb_->chain_b(), channel_.client_on_b),
         "client-frozen", "client was not frozen by misbehaviour evidence");
  freeze.detail = "fork_height=" + std::to_string(fork_h);
  commit_phase(std::move(freeze));
  if (aborted_) return;

  // Let the relayer run against the frozen client for a while (every recv
  // now fails proof verification), then recover and resume.
  run_to(now() + (60 + rng.next_below(20)) * kSecond);
  if (aborted_) return;

  CampaignPhase recover = make_phase("recover-client");
  relayer::Wallet::SubmitOutcome rec =
      probe_submit(*probe_b_, {make_recovery(0).to_msg()}, 2'000'000);
  expect(recover, rec.status.is_ok(), "client-recovery",
         "recover after freeze failed: " + rec.status.to_string());
  expect(recover, !client_frozen(tb_->chain_b(), channel_.client_on_b),
         "client-unfrozen", "client still frozen after recovery");
  recover.detail = rec.status.to_string();
  commit_phase(std::move(recover));
}

// --- relayer-crash: crash/restart cycles, startup re-hydration ------------

void CampaignRun::family_relayer_crash(util::Rng& rng) {
  const sim::TimePoint t0 = now();
  sim::TimePoint t = t0 + (100 + rng.next_below(20)) * kSecond;
  for (int k = 0; k < 3; ++k) {
    run_to(t);
    if (aborted_) return;
    CampaignPhase crash = make_phase("crash-" + std::to_string(k));
    relayers_[0]->stop();
    commit_phase(std::move(crash));

    run_to(now() + (40 + rng.next_below(20)) * kSecond);
    if (aborted_) return;
    CampaignPhase restart = make_phase("restart-" + std::to_string(k));
    relayers_[0]->start();  // startup_rescan re-hydrates from chain state
    commit_phase(std::move(restart));

    t = now() + (120 + rng.next_below(30)) * kSecond;
  }
}

// --- censorship: mempool filters on IBC traffic ---------------------------

void CampaignRun::family_censorship(util::Rng& rng) {
  const sim::TimePoint t0 = now();

  // Window 1: the destination chain censors packet deliveries.
  run_to(t0 + (90 + rng.next_below(20)) * kSecond);
  if (aborted_) return;
  CampaignPhase c1 = make_phase("censor-recv");
  tb_->chain_b().mempool->set_censor([](const chain::Tx& tx) {
    for (const chain::Msg& m : tx.msgs) {
      if (m.type_url == ibc::kMsgRecvPacketUrl) return true;
    }
    return false;
  });
  commit_phase(std::move(c1));

  run_to(now() + (60 + rng.next_below(20)) * kSecond);
  if (aborted_) return;
  CampaignPhase l1 = make_phase("lift-recv");
  tb_->chain_b().mempool->set_censor(nullptr);
  expect(l1, tb_->chain_b().mempool->censored() > 0, "censorship-bit",
         "no recv tx was ever censored during the window");
  l1.detail =
      "censored=" + std::to_string(tb_->chain_b().mempool->censored());
  commit_phase(std::move(l1));

  // Window 2: the source chain censors acknowledgements. Opened at the same
  // instant the recv censor lifts, so the ack burst from the redelivered
  // backlog runs straight into it (and ongoing traffic keeps feeding it).
  CampaignPhase c2 = make_phase("censor-ack");
  tb_->chain_a().mempool->set_censor([](const chain::Tx& tx) {
    for (const chain::Msg& m : tx.msgs) {
      if (m.type_url == ibc::kMsgAcknowledgementUrl) return true;
    }
    return false;
  });
  commit_phase(std::move(c2));

  run_to(now() + (60 + rng.next_below(20)) * kSecond);
  if (aborted_) return;
  CampaignPhase l2 = make_phase("lift-ack");
  tb_->chain_a().mempool->set_censor(nullptr);
  expect(l2, tb_->chain_a().mempool->censored() > 0, "censorship-bit",
         "no ack tx was ever censored during the window");
  l2.detail =
      "censored=" + std::to_string(tb_->chain_a().mempool->censored());
  commit_phase(std::move(l2));
}

// --- frame-storm: packet bursts over the WebSocket frame limit ------------

void CampaignRun::submit_transfer_storm(int txs, int msgs_per_tx) {
  // Fire-and-forget from the probe wallet (optimistic sequencing stacks the
  // txs into one block): the resulting event payload blows through the
  // shrunken websocket_max_frame_bytes, so the relayer sees "Failed to
  // collect events" and — with the sticky §V behaviour — wedges until
  // restarted. Clearing rediscovers the packets meanwhile.
  for (int i = 0; i < txs; ++i) {
    std::vector<chain::Msg> msgs;
    msgs.reserve(static_cast<std::size_t>(msgs_per_tx));
    for (int m = 0; m < msgs_per_tx; ++m) {
      ibc::MsgTransfer t;
      t.source_port = ibc::kTransferPort;
      t.source_channel = channel_.channel_a;
      t.denom = cosmos::kNativeDenom;
      t.amount = 3;
      t.sender = probe_addr_a_;
      t.receiver = "storm-recv";
      t.timeout_height = static_cast<std::int64_t>(
          tb_->chain_b().ledger->height() + 100'000);
      msgs.push_back(t.to_msg());
    }
    const std::uint64_t gas =
        100'000 + 80'000 * static_cast<std::uint64_t>(msgs_per_tx);
    sim::spawn(probe_a_->submit(std::move(msgs), gas),
               [](const relayer::Wallet::SubmitOutcome&) {});
  }
}

void CampaignRun::family_frame_storm(util::Rng& rng) {
  const sim::TimePoint t0 = now();
  for (int k = 0; k < 2; ++k) {
    run_to(t0 + (100 + 200 * k + rng.next_below(20)) * kSecond);
    if (aborted_) return;
    CampaignPhase storm = make_phase("storm-" + std::to_string(k));
    submit_transfer_storm(/*txs=*/3, /*msgs_per_tx=*/60);
    run_to(now() + 20 * kSecond);
    storm.detail = "frames_failed=" +
                   std::to_string(relayers_[0]->stats().frames_failed);
    commit_phase(std::move(storm));
  }
  if (aborted_) return;

  CampaignPhase check = make_phase("storm-check");
  expect(check, relayers_[0]->stats().frames_failed > 0,
         "frame-limit-tripped",
         "no oversized WebSocket frame was ever dropped");
  commit_phase(std::move(check));

  // Restart clears the sticky wedge; startup_rescan catches the relayer up
  // on everything the dead event stream hid.
  run_to(now() + (60 + rng.next_below(20)) * kSecond);
  if (aborted_) return;
  CampaignPhase restart = make_phase("relayer-restart");
  relayers_[0]->stop();
  relayers_[0]->start();
  commit_phase(std::move(restart));
}

// --- shared tail: horizon floor, drain, counters --------------------------

void CampaignRun::drain_and_finish() {
  if (!aborted_) {
    // Long-horizon floor: both chains must reach min_blocks.
    const sim::TimePoint limit =
        now() + static_cast<sim::Duration>(opts_.min_blocks) * 3 * kSecond +
        sim::seconds(600);
    CampaignPhase floor = make_phase("horizon");
    const bool reached =
        run_to_heights(static_cast<chain::Height>(opts_.min_blocks), limit);
    expect(floor, reached, "horizon-reached",
           "chains stalled before the " + std::to_string(opts_.min_blocks) +
               "-block horizon (a=" +
               std::to_string(tb_->chain_a().ledger->height()) + " b=" +
               std::to_string(tb_->chain_b().ledger->height()) + ")");
    floor.detail = "a=" + std::to_string(tb_->chain_a().ledger->height()) +
                   " b=" + std::to_string(tb_->chain_b().ledger->height());
    commit_phase(std::move(floor));
  }

  if (!aborted_) {
    // Survival criterion: every packet sent across the whole campaign was
    // eventually delivered and acknowledged — zero outstanding commitments.
    CampaignPhase drain = make_phase("drain");
    const sim::TimePoint deadline = now() + sim::seconds(400);
    while (!aborted_ && outstanding_commitments() > 0 && now() < deadline) {
      run_to(now() + 10 * kSecond);
    }
    const std::uint64_t left = outstanding_commitments();
    expect(drain, left == 0, "packets-drained",
           std::to_string(left) + " packet commitments still outstanding");
    drain.detail = "outstanding=" + std::to_string(left);
    commit_phase(std::move(drain));
  }

  for (auto& r : relayers_) r->stop();
  // End-of-run audit; in fail-fast mode it aborts like a violating step.
  if (!aborted_) {
    try {
      tb_->checker()->audit();
    } catch (const InvariantViolation& v) {
      result_.violations.push_back(v.violation);
      aborted_ = true;
    }
  }

  const chain::Ledger& la = *tb_->chain_a().ledger;
  const chain::Ledger& lb = *tb_->chain_b().ledger;
  result_.blocks_a = la.height();
  result_.blocks_b = lb.height();
  result_.blocks_checked = tb_->checker()->blocks_checked();
  result_.transfers_requested = workload_ ? workload_->stats().requested : 0;
  result_.packets_received = tb_->chain_b().ibc->packets_received();
  result_.packets_acknowledged = tb_->chain_a().ibc->packets_acknowledged();
  result_.packets_timed_out = tb_->chain_a().ibc->packets_timed_out();
  result_.redundant_messages = tb_->chain_a().ibc->redundant_messages() +
                               tb_->chain_b().ibc->redundant_messages();
  result_.censored_txs = tb_->chain_a().mempool->censored() +
                         tb_->chain_b().mempool->censored();
  result_.evidence_committed =
      tb_->chain_a().engine->evidence_committed() +
      tb_->chain_b().engine->evidence_committed();
  for (const auto& r : relayers_) {
    result_.frames_failed += r->stats().frames_failed;
    result_.abandoned_packets += r->stats().abandoned_packets;
  }
  result_.outstanding_commitments = outstanding_commitments();
  if (la.height() > 0) {
    result_.app_hash_a = crypto::digest_hex(*la.app_hash_after(la.height()));
  }
  if (lb.height() > 0) {
    result_.app_hash_b = crypto::digest_hex(*lb.app_hash_after(lb.height()));
  }
  // Checker-collected violations follow the campaign-expectation ones.
  const auto& checker_violations = tb_->checker()->violations();
  result_.violations.insert(result_.violations.end(),
                            checker_violations.begin(),
                            checker_violations.end());
}

}  // namespace

CampaignResult run_campaign(const CampaignOptions& options) {
  CampaignRun run(options);
  return run.run();
}

}  // namespace check
