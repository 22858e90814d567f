#include "consensus/engine.hpp"

#include <algorithm>
#include <cassert>

#include "telemetry/profiler.hpp"
#include "util/log.hpp"

namespace consensus {

Engine::Engine(sim::Scheduler& sched, net::Network& network,
               chain::ValidatorSet validators, chain::App& app,
               chain::Mempool& mempool, chain::Ledger& ledger,
               EngineConfig config)
    : sched_(sched),
      network_(network),
      validators_(std::move(validators)),
      app_(app),
      mempool_(mempool),
      ledger_(ledger),
      config_(config),
      live_(validators_.size(), true) {}

void Engine::start() {
  assert(!running_);
  running_ = true;
  last_block_time_ = sched_.now();
  // A block committed just before a stop() still executes (its exec event is
  // already scheduled); a restart must not propose that height again, so
  // never move last_commit_done_ backwards past the in-flight execution.
  last_commit_done_ = std::max(last_commit_done_, sched_.now());
  schedule_next_height();
}

void Engine::stop() {
  running_ = false;
}

void Engine::subscribe_block(BlockCallback cb) {
  block_callbacks_.push_back(std::move(cb));
}

void Engine::set_validator_live(std::size_t index, bool live) {
  assert(index < live_.size());
  live_[index] = live;
}

void Engine::report_equivocation(std::size_t validator_idx) {
  assert(validator_idx < validators_.size());
  const chain::Validator& v = validators_.at(validator_idx);
  const chain::Height height = std::max<chain::Height>(ledger_.height(), 1);
  chain::BlockId real{};
  if (const chain::Block* b = ledger_.block_at(height)) real = b->id();
  // The conflicting vote target is a forged fork id derived deterministically
  // from the real block id and the offending validator.
  util::Bytes forged_src = util::to_bytes("equivocation-fork/");
  util::append(forged_src, util::BytesView(real.hash.data(), real.hash.size()));
  util::append(forged_src,
               util::BytesView(v.keys.pub.id.data(), v.keys.pub.id.size()));
  const chain::BlockId forged{crypto::sha256(forged_src)};
  pending_evidence_.push_back(chain::make_duplicate_vote(
      ledger_.chain_id(), v.keys.priv, v.keys.pub, height, 0, real, forged));
}

void Engine::set_telemetry(telemetry::Hub* hub, const std::string& name) {
  hub_ = hub;
  if (auto* t = telemetry::tracer(hub_)) {
    track_ = t->track(name, "consensus");
  }
  if (auto* m = telemetry::metrics(hub_)) {
    blocks_ctr_ = m->counter(name + ".blocks");
    empty_blocks_ctr_ = m->counter(name + ".empty_blocks");
    rounds_ctr_ = m->counter(name + ".rounds");
    failed_rounds_ctr_ = m->counter(name + ".failed_rounds");
    block_msgs_hist_ = m->histogram(
        name + ".block_msgs", {0, 1, 10, 50, 100, 500, 1000, 5000});
  }
}

void Engine::schedule_next_height() {
  if (!running_) return;
  const chain::Height next = ledger_.height() + 1;
  // The proposer starts a height once (a) pacing since the previous block
  // has elapsed and (b) block execution (ABCI commit) finished.
  const sim::TimePoint pace_ready = last_block_time_ + config_.min_block_interval;
  const sim::TimePoint start_at = std::max(pace_ready, last_commit_done_);
  sched_.schedule_at(start_at, [this, next] {
    if (!running_ || ledger_.height() + 1 != next) return;
    begin_round(next, 0);
  });
}

Engine::VoteTally& Engine::tally(chain::Height height, int round) {
  VoteTally& t = tallies_[{height, round}];
  if (t.prevoted.empty()) {
    t.prevoted.assign(validators_.size(), false);
    t.precommitted.assign(validators_.size(), false);
  }
  return t;
}

void Engine::begin_round(chain::Height height, int round) {
  if (!running_) return;
  current_height_ = height;
  current_round_ = round;
  current_block_.reset();
  ++total_rounds_;
  if (rounds_ctr_) rounds_ctr_->add();
  if (round == 0) height_start_ = sched_.now();

  // Arm the round timeout; if the block does not commit in time the round
  // fails and the next proposer takes over.
  if (round_timeout_event_ != sim::kInvalidEvent) {
    sched_.cancel(round_timeout_event_);
  }
  round_timeout_event_ = sched_.schedule_after(
      config_.round_timeout, [this, height, round] {
        on_round_timeout(height, round);
      });

  const std::size_t proposer = validators_.proposer_index(height, round);
  if (!live_[proposer]) {
    // A down proposer simply never proposes; the round timeout handles it.
    return;
  }
  propose(height, round);
}

void Engine::on_round_timeout(chain::Height height, int round) {
  if (!running_) return;
  if (height != current_height_ || round != current_round_) return;
  const auto& t = tally(height, round);
  if (t.committed) return;
  ++failed_rounds_;
  if (failed_rounds_ctr_) failed_rounds_ctr_->add();
  begin_round(height, round + 1);
}

void Engine::propose(chain::Height height, int round) {
  const std::size_t proposer_idx = validators_.proposer_index(height, round);
  const chain::Validator& proposer = validators_.at(proposer_idx);

  auto block = std::make_shared<chain::Block>();
  block->txs = mempool_.reap(config_.max_block_gas, config_.max_block_bytes);
  if (block->txs.empty()) {
    ++empty_blocks_;
    if (empty_blocks_ctr_) empty_blocks_ctr_->add();
  }
  // Carry any reported misbehaviour evidence in the block's Evidence field.
  block->evidence.reserve(pending_evidence_.size());
  for (const chain::Evidence& ev : pending_evidence_) {
    block->evidence.push_back(ev.encode());
  }

  chain::BlockHeader& h = block->header;
  h.chain_id = ledger_.chain_id();
  h.height = height;
  h.time = sched_.now();
  if (const chain::Block* prev = ledger_.block_at(height - 1)) {
    h.last_block_id = prev->id();
    const crypto::Digest* app_hash = ledger_.app_hash_after(height - 1);
    if (app_hash) h.app_hash = *app_hash;
  }
  h.data_hash = block->compute_data_hash();
  h.validators_hash = validators_.hash();
  h.proposer = proposer.keys.pub;
  // LastResultsHash: merkle root of the previous block's execution results
  // (Tendermint commits results one block later).
  if (const auto* prev_results = ledger_.results_at(height - 1)) {
    std::vector<util::Bytes> leaves;
    leaves.reserve(prev_results->size());
    for (const auto& r : *prev_results) {
      util::Bytes leaf;
      util::append_u64_be(leaf, r.gas_used);
      util::append_u32_be(leaf, r.status.is_ok() ? 0u : 1u);
      leaves.push_back(std::move(leaf));
    }
    h.results_hash = crypto::merkle_root(leaves);
  }

  // LastCommit: votes that committed the previous block. We synthesize a
  // full commit from the live validators (the vote messages themselves were
  // simulated when that block committed).
  if (height > 1) {
    const chain::Block* prev = ledger_.block_at(height - 1);
    chain::Commit& lc = block->last_commit;
    lc.height = height - 1;
    lc.block_id = prev->id();
    const util::Bytes sign_bytes = chain::vote_sign_bytes(
        h.chain_id, lc.height, 0, lc.block_id);
    for (std::size_t i = 0; i < validators_.size(); ++i) {
      chain::CommitSig sig;
      sig.validator = validators_.at(i).keys.pub;
      sig.timestamp = prev->header.time;
      if (live_[i]) {
        sig.flag = chain::BlockIdFlag::kCommit;
        sig.signature = crypto::sign(validators_.at(i).keys.priv, sign_bytes);
      } else {
        sig.flag = chain::BlockIdFlag::kAbsent;
      }
      lc.signatures.push_back(std::move(sig));
    }
  }

  current_block_ = block;

  // Gossip the proposal to the other validators; the proposer prevotes
  // immediately (it validated its own block while building it).
  const std::uint64_t block_bytes = block->size_bytes();
  for (std::size_t i = 0; i < validators_.size(); ++i) {
    if (i == proposer_idx) continue;
    network_.send(proposer.machine, validators_.at(i).machine, block_bytes,
                  [this, i, height, round, block] {
                    on_proposal(i, height, round, block);
                  });
  }
  cast_prevote(proposer_idx, height, round);
}

sim::Duration Engine::validation_cost(const chain::Block& block) const {
  return config_.validate_cost_base +
         config_.validate_cost_per_tx *
             static_cast<sim::Duration>(block.txs.size());
}

void Engine::on_proposal(std::size_t validator_idx, chain::Height height,
                         int round, std::shared_ptr<chain::Block> block) {
  if (!running_ || !live_[validator_idx]) return;
  if (height != current_height_ || round != current_round_) return;
  // Validate (stateless checks) then prevote.
  sched_.schedule_after(validation_cost(*block),
                        [this, validator_idx, height, round] {
                          cast_prevote(validator_idx, height, round);
                        });
}

void Engine::cast_prevote(std::size_t validator_idx, chain::Height height,
                          int round) {
  if (!running_ || !live_[validator_idx]) return;
  if (height != current_height_ || round != current_round_) return;
  VoteTally& t = tally(height, round);
  if (t.prevoted[validator_idx]) return;
  t.prevoted[validator_idx] = true;
  t.prevote_power += validators_.at(validator_idx).power;

  // Broadcast the prevote; each validator independently detects quorum.
  const net::MachineId from = validators_.at(validator_idx).machine;
  for (std::size_t i = 0; i < validators_.size(); ++i) {
    if (i == validator_idx) continue;
    network_.send(from, validators_.at(i).machine, config_.vote_bytes,
                  [this, validator_idx, height, round] {
                    on_prevote(validator_idx, height, round);
                  });
  }
  on_prevote(validator_idx, height, round);
}

void Engine::on_prevote(std::size_t from_idx, chain::Height height,
                        int round) {
  (void)from_idx;
  if (!running_) return;
  if (height != current_height_ || round != current_round_) return;
  VoteTally& t = tally(height, round);
  // Quorum check uses the tally's aggregate power. Once +2/3 prevotes exist
  // (and vote messages have had time to propagate — modelled by this event
  // arriving over the network), live validators precommit.
  if (t.prevote_quorum_announced) return;
  if (t.prevote_power < validators_.quorum_power()) return;
  t.prevote_quorum_announced = true;
  for (std::size_t i = 0; i < validators_.size(); ++i) {
    if (!live_[i]) continue;
    const net::MachineId from = validators_.at(i).machine;
    for (std::size_t j = 0; j < validators_.size(); ++j) {
      if (j == i) continue;
      network_.send(from, validators_.at(j).machine, config_.vote_bytes,
                    [this, i, height, round] {
                      on_precommit(i, height, round);
                    });
    }
    on_precommit(i, height, round);
  }
}

void Engine::on_precommit(std::size_t from_idx, chain::Height height,
                          int round) {
  if (!running_) return;
  if (height != current_height_ || round != current_round_) return;
  VoteTally& t = tally(height, round);
  if (!t.precommitted[from_idx]) {
    t.precommitted[from_idx] = true;
    t.precommit_power += validators_.at(from_idx).power;
  }
  if (t.committed) return;
  if (t.precommit_power < validators_.quorum_power()) return;
  t.committed = true;
  commit_block(height, round);
}

void Engine::commit_block(chain::Height height, int round) {
  telemetry::ProfileScope prof(telemetry::ProfileKey::kConsensusExec);
  assert(current_block_);
  if (round_timeout_event_ != sim::kInvalidEvent) {
    sched_.cancel(round_timeout_event_);
    round_timeout_event_ = sim::kInvalidEvent;
  }

  // Copied, not moved: proposal deliveries still in flight read the shared
  // block (on_proposal's validation cost). The txs are sealed pointers, so
  // the copy shares them.
  chain::Block block = *current_block_;
  current_block_.reset();

  // Re-verify carried evidence at commit (as every full node would) and
  // retire it from the pending pool so each proof is committed exactly once.
  for (const util::Bytes& raw : block.evidence) {
    chain::Evidence ev;
    if (chain::Evidence::decode(raw, ev) && ev.verify(block.header.chain_id)) {
      ++evidence_committed_;
      std::erase(pending_evidence_, ev);
    }
  }

  // Estimate the execution duration up front (from declared gas plus the
  // superlinear per-block overhead: indexing, recheck, state growth). The
  // ABCI execution itself runs — and its effects become visible: app state,
  // mempool recheck, ledger, subscribers — only once that time has elapsed,
  // exactly like a node whose commit blocks until execution finishes. This
  // keeps CheckTx, tx-index queries and store proofs on one consistent
  // snapshot at every instant.
  sim::Duration exec = sim::kDurationZero;
  std::size_t total_msgs = 0;
  for (const chain::TxPtr& tx : block.txs) {
    exec += app_.execution_cost(*tx);
    total_msgs += tx->msgs.size();
  }
  exec += static_cast<sim::Duration>(
      config_.block_overhead_quadratic_ns *
      static_cast<double>(total_msgs) * static_cast<double>(total_msgs) /
      1000.0);

  // Synthesize the seen commit: the +2/3 precommits (whose transmission was
  // simulated above) recorded so light clients can verify this block.
  chain::Commit seen;
  seen.height = height;
  seen.round = round;
  seen.block_id = block.id();
  {
    const util::Bytes sign_bytes = chain::vote_sign_bytes(
        block.header.chain_id, height, round, seen.block_id);
    const VoteTally& t = tally(height, round);
    for (std::size_t i = 0; i < validators_.size(); ++i) {
      chain::CommitSig sig;
      sig.validator = validators_.at(i).keys.pub;
      sig.timestamp = sched_.now();
      if (t.precommitted[i]) {
        sig.flag = chain::BlockIdFlag::kCommit;
        sig.signature = crypto::sign(validators_.at(i).keys.priv, sign_bytes);
      } else {
        sig.flag = chain::BlockIdFlag::kAbsent;
      }
      seen.signatures.push_back(std::move(sig));
    }
  }

  last_block_time_ = block.header.time;
  last_exec_duration_ = exec;

  if (blocks_ctr_) blocks_ctr_->add();
  if (block_msgs_hist_) {
    block_msgs_hist_->observe(static_cast<double>(total_msgs));
  }
  if (auto* t = telemetry::tracer(hub_)) {
    // Both spans end at execution completion, a deterministic `exec` from
    // now — emit them up front rather than threading state into the
    // execution closure.
    const sim::TimePoint end = sched_.now() + exec;
    t->complete(track_, "height", height_start_, end - height_start_);
    t->complete(track_, "exec", sched_.now(), exec);
  }


  // Drop vote bookkeeping for older heights. The current height's tally is
  // kept (with committed=true) so straggler precommit deliveries for this
  // round are recognised as late rather than treated as a fresh quorum.
  std::erase_if(tallies_, [height](const auto& kv) {
    return kv.first.first < height;
  });

  // Execution + ledger append + mempool recheck + subscriber notifications
  // all land when execution finishes — before that, RPC queries serve the
  // pre-block state and cannot confirm the new transactions.
  last_commit_done_ = sched_.now() + exec;
  sched_.schedule_after(
      exec, [this, block = std::move(block), height,
             seen = std::move(seen)]() mutable {
        telemetry::ProfileScope prof(telemetry::ProfileKey::kConsensusExec);
        app_.begin_block(block.header);
        std::vector<chain::DeliverTxResult> results;
        results.reserve(block.txs.size());
        for (const chain::TxPtr& tx : block.txs) {
          results.push_back(app_.deliver_tx(*tx));
        }
        (void)app_.end_block(height);
        const crypto::Digest app_hash = app_.commit();
        mempool_.update_after_commit(block.txs);
        ledger_.append(std::move(block), std::move(results), app_hash,
                       std::move(seen));
        const chain::Height committed_height = ledger_.height();
        const chain::Block* b = ledger_.block_at(committed_height);
        const auto* res = ledger_.results_at(committed_height);
        assert(b && res);
        for (const auto& cb : block_callbacks_) {
          if (cb) cb(*b, *res);
        }
        schedule_next_height();
      });
}

}  // namespace consensus
