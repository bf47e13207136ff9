#include "elastic/context.h"

#include <algorithm>

#include "base/executor.h"
#include "compile/vm.h"

namespace esl {

SimContext::SimContext(Netlist& netlist) : netlist_(netlist) {
  netlist_.validate();
  reset();
}

SimContext::~SimContext() = default;

void SimContext::reset() {
  for (const NodeId id : netlist_.nodeIds()) netlist_.node(id).reset();
  // Dropping every record makes the relayout below start each one from reset.
  state_.clear();
  stateOff_.clear();
  cycle_ = 0;
  violations_.clear();
  retry_.clear();
  hasFixedChoices_ = false;
  topologySeen_ = ~std::uint64_t{0};  // force cache + layout + full-seed refresh
  ensureTopologyCache();
  // The cache refresh re-laid the board through the value-preserving adopt
  // path; a reset starts from all-zero signals.
  board_.clearValues();
  invalidateSignals();
}

void SimContext::ensureTopologyCache() {
  if (topologySeen_ == netlist_.topologyVersion() && shardsSeen_ == shards_)
    return;
  liveNodes_ = netlist_.nodeIds();
  seedNodes_.clear();
  cycleSeedNodes_.clear();
  choiceNodes_.clear();
  // Choice slots follow the live nodes, so a node spliced in mid-run gets its
  // own (the provider keys on (node, index), so no drawn value moves).
  choiceOffset_.assign(netlist_.nodeCapacity(), 0);
  totalChoices_ = 0;
  nodeUnaudited_.assign(netlist_.nodeCapacity(), 0);
  nodeStateDriven_.assign(netlist_.nodeCapacity(), 0);
  nodeEdgeOnEvents_.assign(netlist_.nodeCapacity(), 0);
  nodeStateful_.assign(netlist_.nodeCapacity(), 0);
  for (const NodeId id : liveNodes_) {
    const Node& node = netlist_.node(id);
    const Node::EvalPurity purity = node.evalPurity();
    if (purity != Node::EvalPurity::kCombPure) {
      seedNodes_.push_back(id);
      nodeStateful_[id] = 1;
    }
    if (purity == Node::EvalPurity::kUnaudited) nodeUnaudited_[id] = 1;
    if (purity == Node::EvalPurity::kStateDriven) nodeStateDriven_[id] = 1;
    // Unaudited nodes made no promise about what evalComb reads, so they are
    // conservatively re-seeded into every settle along with the declared
    // per-cycle readers (cycle counter / choice bits).
    if (node.evalReadsPerCycleInputs() ||
        purity == Node::EvalPurity::kUnaudited)
      cycleSeedNodes_.push_back(id);
    choiceOffset_[id] = totalChoices_;
    totalChoices_ += node.choiceCount();
    if (node.choiceCount() > 0) choiceNodes_.push_back(id);
    if (node.edgeActivity() == Node::EdgeActivity::kOnEvents)
      nodeEdgeOnEvents_[id] = 1;
  }
  choiceKnown_.assign((totalChoices_ + 63) / 64, 0);
  choiceValue_.assign((totalChoices_ + 63) / 64, 0);
  ESL_CHECK(!hasFixedChoices_ || fixedChoices_.size() == totalChoices_,
            "setChoices: the netlist's choice bits changed under a fixed "
            "assignment");
  liveChannels_ = netlist_.channelIds();

  // Shard plan: contiguous blocks of the live-node order, balanced by count.
  // Blocks are snapped to 64-id boundaries so each worklist-bitmap word (and
  // each interior plane group) has exactly one owner — shard workers then
  // push and mark with plain stores.
  plan_.shards = shards_;
  plan_.nodeShard.assign(netlist_.nodeCapacity(), 0);
  shardState_.assign(shards_, Shard{});
  const std::size_t n = liveNodes_.size();
  const std::size_t block = shards_ == 0 ? n : (n + shards_ - 1) / shards_;
  for (std::size_t i = 0; i < n; ++i) {
    unsigned s =
        block == 0 ? 0
                   : static_cast<unsigned>(std::min<std::size_t>(i / block, shards_ - 1));
    if (i > 0 && (liveNodes_[i] >> 6) == (liveNodes_[i - 1] >> 6))
      s = plan_.nodeShard[liveNodes_[i - 1]];  // same bitmap word → same owner
    plan_.nodeShard[liveNodes_[i]] = s;
    shardState_[s].owned.push_back(liveNodes_[i]);
  }
  for (Shard& sh : shardState_) {
    sh.loId = sh.owned.empty() ? 0 : sh.owned.front();
    sh.hiId = sh.owned.empty() ? 0 : sh.owned.back();
    sh.alwaysEdge.clear();
    for (const NodeId id : sh.owned)
      if (!nodeEdgeOnEvents_[id]) sh.alwaysEdge.push_back(id);
  }

  // Re-layout the board for the new topology/partition, preserving the
  // per-channel values of surviving channels (channels created since the last
  // reset — insertOnChannel, connect during interactive surgery — get zeroed
  // slots before any kernel touches them). The protocol monitor's Retry±
  // obligations move with their channels: a token stopped on the cycle before
  // a mid-run surgery must still be there after it.
  SignalBoard fresh;
  fresh.layout(netlist_, &plan_);
  fresh.adoptValuesFrom(board_);
  remapRetryObligations(board_, fresh);
  board_ = std::move(fresh);
  sweepScratch_.layout(netlist_, &plan_);
  ccPre_.layout(netlist_, &plan_);
  ccEvent_.layout(netlist_, &plan_);

  pendingBits_.assign((netlist_.nodeCapacity() + 63) / 64, 0);
  pendingWordGen_.assign((netlist_.nodeCapacity() + 63) / 64, 0);
  evalMeta_.assign(netlist_.nodeCapacity(), 0);
  edgeBits_.assign((netlist_.nodeCapacity() + 63) / 64, 0);
  edgeWordGen_.assign((netlist_.nodeCapacity() + 63) / 64, 0);
  groupHot_.assign(board_.groupCount(), 0);
  // Hot-dispatch caches: raw node pointers and the channel→reader adjacency
  // flattened to CSR with board slots pre-resolved. Built here (serially), so
  // shard workers never touch the netlist's lazy mutable caches.
  nodePtr_.assign(netlist_.nodeCapacity(), nullptr);
  adjOffset_.assign(netlist_.nodeCapacity() + 1, 0);
  adjFlat_.clear();
  for (const NodeId id : liveNodes_) {
    nodePtr_[id] = &netlist_.node(id);
    adjOffset_[id] = static_cast<std::uint32_t>(adjFlat_.size());
    for (const auto& [ch, other] : netlist_.adjacency(id))
      adjFlat_.push_back({board_.slotOf(ch), other});
    adjOffset_[id + 1] = static_cast<std::uint32_t>(adjFlat_.size());
  }
  layoutState();
  topologySeen_ = netlist_.topologyVersion();
  shardsSeen_ = shards_;
  needFullSeed_ = true;
  changeTrackValid_ = false;
  edgeTrackValid_ = false;
  sparseSeedValid_ = false;
}

void SimContext::setShards(unsigned n) {
  if (n == 0) n = 1;
  ESL_CHECK(n <= kMaxShards, "shard count " + std::to_string(n) +
                                 " exceeds the maximum of " +
                                 std::to_string(kMaxShards));
  if (n == shards_) return;
  // The re-layout below permutes board slots and state records and bumps the
  // layout generation, so a compiled program (keyed on it) recompiles at the
  // next phase.
  shards_ = n;
  exec_.reset();
  invalidateSignals();
  ensureTopologyCache();  // re-partition + re-layout, preserving signal values
}

void SimContext::parallelShards(const std::function<void(unsigned)>& fn) {
  exec().parallelFor(shards_,
                     [&](std::size_t s, unsigned) { fn(static_cast<unsigned>(s)); });
}

void SimContext::layoutState() {
  std::vector<std::uint32_t> off(netlist_.nodeCapacity(), kNoState);
  std::uint32_t size = 0;
  unsigned prevShard = ~0u;
  for (const NodeId id : liveNodes_) {
    const std::uint32_t words = nodePtr_[id]->stateWords();
    if (words == 0) continue;
    if (shards_ > 1 && plan_.nodeShard[id] != prevShard) size = (size + 7) & ~7u;
    prevShard = plan_.nodeShard[id];
    off[id] = size;
    size += words;
  }
  // Like SignalBoard::adoptValuesFrom: surviving nodes keep their record,
  // nodes spliced in since the last layout start from their reset record.
  std::vector<std::uint64_t> words(size, 0);
  for (const NodeId id : liveNodes_) {
    if (off[id] == kNoState) continue;
    const Node& node = *nodePtr_[id];
    std::uint64_t* rec = words.data() + off[id];
    if (id < stateOff_.size() && stateOff_[id] != kNoState)
      std::copy_n(state_.data() + stateOff_[id], node.stateWords(), rec);
    else
      node.resetRecord(rec);
  }
  state_ = std::move(words);
  stateOff_ = std::move(off);
}

compile::Vm& SimContext::vm() {
  if (!vm_) vm_ = std::make_unique<compile::Vm>(*this);
  return *vm_;
}

Executor& SimContext::exec() {
  if (!exec_) exec_ = std::make_unique<Executor>(shards_);
  return *exec_;
}

void SimContext::setChoices(std::vector<bool> bits) {
  ESL_CHECK(bits.size() == totalChoices_, "setChoices: wrong bit count");
  fixedChoices_ = std::move(bits);
  hasFixedChoices_ = true;
  std::fill(choiceKnown_.begin(), choiceKnown_.end(), 0);
}

void SimContext::setChoicesFrom(const std::vector<bool>& bits) {
  ESL_CHECK(bits.size() == totalChoices_, "setChoices: wrong bit count");
  fixedChoices_ = bits;  // copy-assign reuses fixedChoices_'s capacity
  hasFixedChoices_ = true;
  std::fill(choiceKnown_.begin(), choiceKnown_.end(), 0);
}

void SimContext::setChoiceProvider(std::function<bool(NodeId, unsigned)> fn) {
  choiceProvider_ = std::move(fn);
}

bool SimContext::choice(const Node& node, unsigned idx) {
  ESL_CHECK(idx < node.choiceCount(), "choice index out of range on " + node.name());
  const unsigned slot = choiceOffset_.at(node.id()) + idx;
  const std::uint64_t mask = std::uint64_t{1} << (slot & 63);
  if (choiceKnown_[slot / 64] & mask) return (choiceValue_[slot / 64] & mask) != 0;
  bool value = false;
  if (hasFixedChoices_)
    value = fixedChoices_[slot];
  else if (choiceProvider_)
    value = choiceProvider_(node.id(), idx);
  choiceKnown_[slot / 64] |= mask;
  if (value)
    choiceValue_[slot / 64] |= mask;
  else
    choiceValue_[slot / 64] &= ~mask;
  return value;
}

void SimContext::rebuildHotGroups() {
  // Runs only alongside a shadow refresh (reset/rewiring/sweep interludes):
  // one linear sweep re-derives which interior groups carry tokens. Boundary
  // groups are never listed — the sharded edge scans that (small) region
  // unconditionally, and in serial mode every group is interior.
  std::fill(groupHot_.begin(), groupHot_.end(), 0);
  for (unsigned s = 0; s < shards_; ++s) {
    Shard& sh = shardState_[s];
    sh.hotGroups.clear();
    const auto [lo, hi] = board_.shardGroupRange(s);
    for (std::size_t g = lo; g < hi; ++g) {
      if (board_.activityAtGroup(g) != 0) {
        groupHot_[g] = 1;
        sh.hotGroups.push_back(static_cast<std::uint32_t>(g));
      }
    }
  }
}

void SimContext::resolveAllChoices() {
  // Sharded settles pre-resolve every slot single-threaded so the cache is
  // read-only under workers. Identical to lazy resolution because the
  // provider is order-independent (a pure per-cycle function of node/index).
  if (totalChoices_ == 0) return;
  for (const NodeId id : choiceNodes_) {
    const Node& node = *nodePtr_[id];
    const unsigned count = node.choiceCount();
    for (unsigned i = 0; i < count; ++i) (void)choice(node, i);
  }
}

void SimContext::settle() {
  ensureTopologyCache();
  if (crossCheck_)
    settleCrossChecked();
  else if (kernel_ == SettleKernel::kSweep)
    settleSweep();
  else
    vm().settle();
}

void SimContext::settleSweep() {
  changeTrackValid_ = false;  // sweep writes bypass the consume loop
  edgeTrackValid_ = false;    // ... and the settled-board guarantee
  const std::vector<NodeId>& ids = liveNodes_;
  const unsigned maxIters = static_cast<unsigned>(2 * ids.size() + 8);
  SignalBoard& before = sweepScratch_;
  for (unsigned iter = 0; iter < maxIters; ++iter) {
    before.copyValuesFrom(board_);
    for (const NodeId id : ids) netlist_.node(id).evalComb(*this);
    if (board_.sameValuesAs(before) && iter > 0) return;
    if (board_.sameValuesAs(before) && ids.empty()) return;
  }
  throw CombinationalCycleError(
      "combinational network did not stabilize after " + std::to_string(maxIters) +
      " sweeps (combinational cycle in data or control)");
}

void SimContext::seedShards(std::uint64_t gen) {
  const auto pushOwned = [&](NodeId id) {
    pushInto(shardState_[plan_.nodeShard[id]], gen, id);
  };
  if (needFullSeed_) {
    for (const NodeId id : liveNodes_) pushOwned(id);
  } else if (!sparseSeedValid_) {
    for (const NodeId id : seedNodes_) pushOwned(id);
  } else {
    for (const NodeId id : cycleSeedNodes_) pushOwned(id);
    for (Shard& sh : shardState_)
      for (const NodeId id : sh.clocked) pushInto(sh, gen, id);
  }
  needFullSeed_ = false;
}

void SimContext::settleCrossChecked() {
  ccPre_.copyValuesFrom(board_);
  vm().settle();
  ccEvent_.copyValuesFrom(board_);
  board_.copyValuesFrom(ccPre_);
  settleSweep();
  const SignalBoard& event = ccEvent_;
  for (const ChannelId id : netlist_.channelIds()) {
    const std::uint32_t slot = board_.slotOf(id);
    if (board_.channelEqualsAt(slot, event)) continue;
    const auto bit = [](bool v) { return v ? '1' : '0'; };
    const ChannelSignals s = board_.snapshotAt(slot);
    const ChannelSignals e = event.snapshotAt(slot);
    throw InternalError(
        std::string("settle cross-check: kernels disagree on channel '") +
        netlist_.channel(id).name + "' at cycle " + std::to_string(cycle_) +
        ": sweep vf/sf/vb/sb=" + bit(s.vf) + bit(s.sf) + bit(s.vb) + bit(s.sb) +
        " data=" + s.data.toHex() + ", event-driven vf/sf/vb/sb=" + bit(e.vf) +
        bit(e.sf) + bit(e.vb) + bit(e.sb) + " data=" + e.data.toHex());
  }
}

namespace {
// Monitor findings, indexed by Finding::what in the order a channel reports
// them.
constexpr const char* kFindingText[] = {
    "token killed and stopped (V+ S+ V-)",
    "anti-token killed and stopped (V- S- V+)",
    "Retry+ violated: stopped token vanished",
    "Retry+ persistence violated: data changed during retry",
    "Retry- violated: stopped anti-token vanished",
};
enum : unsigned { kTokenKilledStopped, kAntiKilledStopped, kRetryVanished,
                  kRetryDataChanged, kRetryAntiVanished };
}  // namespace

void SimContext::checkProtocol() {
  ensureTopologyCache();
  if (persistGeneration_ != board_.layoutGeneration()) rebuildPersistMask();
  findings_.clear();
  const auto flag = [&](std::size_t g, std::uint64_t bits, unsigned what) {
    for (; bits != 0; bits &= bits - 1) {
      const unsigned bit = static_cast<unsigned>(__builtin_ctzll(bits));
      findings_.push_back(
          {board_.channelAtSlot(static_cast<std::uint32_t>(g * 64 + bit)), what});
    }
  };
  using P = SignalBoard::Plane;

  // Invariant (paper §3.1): kill and stop are mutually exclusive, in both
  // polarities.
  const std::size_t groups = board_.groupCount();
  for (std::size_t g = 0; g < groups; ++g) {
    const std::uint64_t kill = board_.planeWord(g, P::kVf) & board_.planeWord(g, P::kVb);
    if (kill == 0) continue;
    flag(g, kill & board_.planeWord(g, P::kSf), kTokenKilledStopped);
    flag(g, kill & board_.planeWord(g, P::kSb), kAntiKilledStopped);
  }

  // Retry+: a stopped token must persist (with its data) next cycle, on
  // channels whose producer promises persistence. Retry-: a stopped
  // anti-token must persist next cycle.
  std::size_t kept = 0;  // cursor into retryData_
  for (const RetryWord& r : retry_) {
    const std::uint64_t vf = board_.planeWord(r.group, P::kVf);
    const std::uint64_t checked = r.fwd & persistMask_[r.group];
    flag(r.group, checked & ~vf, kRetryVanished);
    std::uint64_t changed = 0;
    for (std::uint64_t f = r.fwd; f != 0; f &= f - 1, ++kept) {
      const std::uint64_t m = f & -f;
      const auto slot = static_cast<std::uint32_t>(r.group * 64 + __builtin_ctzll(f));
      if ((checked & vf & m) && !board_.dataEqualsValueAt(slot, retryData_[kept]))
        changed |= m;
    }
    flag(r.group, changed, kRetryDataChanged);
    flag(r.group, r.bwd & ~board_.planeWord(r.group, P::kVb), kRetryAntiVanished);
  }
  if (!findings_.empty()) reportFindings();
}

void SimContext::reportFindings() {
  // Live-channel order (liveChannels_ ascends by id), then check order within
  // a channel — whatever the board's slot permutation.
  std::sort(findings_.begin(), findings_.end(), [](const Finding& a, const Finding& b) {
    return a.ch != b.ch ? a.ch < b.ch : a.what < b.what;
  });
  for (const Finding& f : findings_) {
    const std::string msg = "cycle " + std::to_string(cycle_) + ", channel '" +
                            netlist_.channel(f.ch).name + "': " + kFindingText[f.what];
    violations_.push_back(msg);
    if (throwOnViolation_) throw ProtocolError(msg);
  }
}

void SimContext::rebuildPersistMask() {
  persistMask_.assign(board_.groupCount(), 0);
  const std::vector<bool> persistent = netlist_.persistentChannels();
  for (const ChannelId ch : liveChannels_) {
    if (!persistent[ch]) continue;
    const std::uint32_t slot = board_.slotOf(ch);
    persistMask_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  }
  persistGeneration_ = board_.layoutGeneration();
}

void SimContext::recordRetryObligations() {
  retry_.clear();
  retryData_.clear();
  using P = SignalBoard::Plane;
  const std::size_t groups = board_.groupCount();
  for (std::size_t g = 0; g < groups; ++g) {
    const std::uint64_t vf = board_.planeWord(g, P::kVf);
    const std::uint64_t vb = board_.planeWord(g, P::kVb);
    if ((vf | vb) == 0) continue;
    // Unfiltered by persistence: the check applies the mask of the topology
    // in force then, which a surgery in between may have changed.
    const std::uint64_t fwd = vf & board_.planeWord(g, P::kSf) & ~vb;
    const std::uint64_t bwd = vb & board_.planeWord(g, P::kSb) & ~vf;
    if ((fwd | bwd) == 0) continue;
    retry_.push_back({static_cast<std::uint32_t>(g), fwd, bwd});
    for (std::uint64_t f = fwd; f != 0; f &= f - 1)
      retryData_.push_back(
          board_.dataAt(static_cast<std::uint32_t>(g * 64 + __builtin_ctzll(f))));
  }
}

void SimContext::remapRetryObligations(const SignalBoard& from, const SignalBoard& to) {
  if (retry_.empty()) return;
  // Like SignalBoard::adoptValuesFrom: a channel both layouts know with the
  // same width keeps its obligation.
  struct Moved {
    std::uint32_t slot;
    bool fwd, bwd;
    BitVec kept;
  };
  std::vector<Moved> moved;
  std::size_t kept = 0;
  for (const RetryWord& r : retry_) {
    for (std::uint64_t any = r.fwd | r.bwd; any != 0; any &= any - 1) {
      const std::uint64_t m = any & -any;
      const auto slot = static_cast<std::uint32_t>(r.group * 64 + __builtin_ctzll(any));
      const bool fwd = (r.fwd & m) != 0;
      BitVec data = fwd ? std::move(retryData_[kept++]) : BitVec();
      const std::uint32_t dst = to.slotOf(from.channelAtSlot(slot));
      if (dst == SignalBoard::kNoSlot || to.widthAtSlot(dst) != from.widthAtSlot(slot))
        continue;
      moved.push_back({dst, fwd, (r.bwd & m) != 0, std::move(data)});
    }
  }
  std::sort(moved.begin(), moved.end(),
            [](const Moved& a, const Moved& b) { return a.slot < b.slot; });
  retry_.clear();
  retryData_.clear();
  for (Moved& mv : moved) {
    const std::uint32_t g = mv.slot >> 6;
    const std::uint64_t m = std::uint64_t{1} << (mv.slot & 63);
    if (retry_.empty() || retry_.back().group != g) retry_.push_back({g, 0, 0});
    if (mv.fwd) {
      retry_.back().fwd |= m;
      retryData_.push_back(std::move(mv.kept));
    }
    if (mv.bwd) retry_.back().bwd |= m;
  }
}

void SimContext::edge() {
  ensureTopologyCache();
  if (crossCheck_)
    edgeAudited();
  else if (!edgeTrackValid_)
    edgeFull();
  else
    vm().edge();
  edgeEpilogue();
}

void SimContext::edgeFull() {
  for (const NodeId id : liveNodes_) netlist_.node(id).clockEdge(*this);
  sparseSeedValid_ = false;  // anything may have changed state
}

void SimContext::edgeAudited() {
  // Reference clockEdge sweep over every node, auditing the EdgeActivity
  // declarations: a node the sparse path would have skipped (kOnEvents, no
  // adjacent event) must not change its serialized state. Channel events are
  // recomputed from the settled board — cross-check settles end on the sweep
  // kernel, whose writes land in the same planes.
  std::vector<std::uint8_t> nodeHasEvent(netlist_.nodeCapacity(), 0);
  scanEventGroups(0, board_.groupCount(), [&](NodeId id) {
    if (id != kNoNode) nodeHasEvent[id] = 1;
  });
  // Additionally audit every specialized clock-edge op (the interpreted
  // lowering has none) against the virtual clockEdge — run the virtual one
  // (statistics count once), rewind the node's serialized state, replay the
  // op with statistics suppressed, and require byte-identical packState().
  vm().prepare();
  for (Shard& sh : shardState_) sh.clocked.clear();
  for (const NodeId id : liveNodes_) {
    Node& node = netlist_.node(id);
    const bool wouldSkip = nodeEdgeOnEvents_[id] && !nodeHasEvent[id];
    if (!wouldSkip) {
      if (nodeStateful_[id]) shardState_[plan_.nodeShard[id]].clocked.push_back(id);
      if (vm().hasSpecializedOpFor(id)) {
        StateWriter w0;
        packNode(node, w0);
        const std::vector<std::uint8_t> s0 = w0.take();
        node.clockEdge(*this);
        StateWriter w1;
        packNode(node, w1);
        const std::vector<std::uint8_t> s1 = w1.take();
        StateReader rewind(s0);
        unpackNode(node, rewind);
        vm().edgeNodeForAudit(id);
        StateWriter w2;
        packNode(node, w2);
        if (s1 != w2.take())
          throw InternalError(
              "edge cross-check: compiled clockEdge op for node '" +
              node.name() + "' (" + node.kindName() +
              ") disagrees with the interpreted edge at cycle " +
              std::to_string(cycle_));
      } else {
        node.clockEdge(*this);
      }
      continue;
    }
    StateWriter before;
    packNode(node, before);
    node.clockEdge(*this);
    StateWriter after;
    packNode(node, after);
    if (before.take() != after.take())
      throw InternalError(
          "edge cross-check: node '" + node.name() + "' (" + node.kindName() +
          ") declares EdgeActivity::kOnEvents but changed state at cycle " +
          std::to_string(cycle_) + " without an adjacent channel event");
  }
  // The audit above just proved the skipped nodes kept their state, so the
  // sparse seed bookkeeping is as valid as after a dirty-tracked edge. This
  // deliberately routes the NEXT cross-checked settle through the sparse
  // seeding path: a node that reads the cycle counter or choice bits in
  // evalComb without declaring evalReadsPerCycleInputs() now shows up as a
  // kernel disagreement instead of hiding behind full re-seeding.
  sparseSeedValid_ = true;
}

void SimContext::edgeEpilogue() {
  // Only a monitored edge leaves Retry± obligations for the next check.
  if (protocolChecking_)
    recordRetryObligations();
  else
    retry_.clear();
  hasFixedChoices_ = false;
  std::fill(choiceKnown_.begin(), choiceKnown_.end(), 0);
  ++cycle_;
}

void SimContext::step() {
  settle();
  if (protocolChecking_) checkProtocol();
  edge();
}

std::vector<std::uint8_t> SimContext::packState() const {
  StateWriter w;
  w.writeU32(kSnapshotMagic);
  w.writeU32(kSnapshotVersion);
  w.writeU64(cycle_);
  packNodeState(w);
  return w.take();
}

void SimContext::packStateInto(std::vector<std::uint8_t>& out) const {
  StateWriter w(std::move(out));
  packNodeState(w);
  out = w.take();
}

void SimContext::packNode(const Node& node, StateWriter& w) const {
  const NodeId id = node.id();
  if (id < stateOff_.size() && stateOff_[id] != kNoState) {
    node.packRecord(state_.data() + stateOff_[id], w);
    return;
  }
  const std::uint32_t words = node.stateWords();
  if (words == 0) {
    node.packState(w);
    return;
  }
  // Spliced in since the last layout: its record will start from reset.
  std::vector<std::uint64_t> fresh(words, 0);
  node.resetRecord(fresh.data());
  node.packRecord(fresh.data(), w);
}

void SimContext::unpackNode(Node& node, StateReader& r) {
  const std::uint32_t off = stateOff_[node.id()];
  if (off == kNoState) {
    node.unpackState(r);
    return;
  }
  node.unpackRecord(state_.data() + off, r);
}

void SimContext::packNodeState(StateWriter& w) const {
  // The live-node cache avoids the nodeIds() allocation on the hot path; it
  // is valid whenever the topology has not moved since the last settle/reset.
  if (topologySeen_ == netlist_.topologyVersion()) {
    for (const NodeId id : liveNodes_) packNode(*nodePtr_[id], w);
  } else {
    for (const NodeId id : netlist_.nodeIds()) packNode(netlist_.node(id), w);
  }
}

namespace {
std::uint32_t readLeU32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}
std::uint64_t readLeU64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(readLeU32(p)) |
         (static_cast<std::uint64_t>(readLeU32(p + 4)) << 32);
}
}  // namespace

void SimContext::unpackState(const std::vector<std::uint8_t>& bytes) {
  // Same cached-liveNodes_ fast path as packStateInto: restore runs once per
  // explored edge in the model checker, so the nodeIds() allocation matters.
  ensureTopologyCache();
  // Sniff the versioned packState() header (magic/version/cycle); headerless
  // packStateInto() snapshots skip straight to node bytes. A raw snapshot
  // whose first node happens to serialize the 8-byte pattern
  // magic|version == 0x00000001'E51A7E01 would be misread, but the leading
  // field of every catalog node is a bool/index far below 2^32, so the
  // collision requires a TokenSource at index_ == 0x1E51A7E01 (~8.1e9 cycles
  // into a run) fed through the headerless API — negligible, and the vector
  // API always carries the header.
  std::size_t off = 0;
  if (bytes.size() >= 16 && readLeU32(bytes.data()) == kSnapshotMagic &&
      readLeU32(bytes.data() + 4) == kSnapshotVersion) {
    cycle_ = readLeU64(bytes.data() + 8);
    off = 16;
  }
  StateReader r(bytes, off);
  for (const NodeId id : liveNodes_) unpackNode(*nodePtr_[id], r);
  ESL_CHECK(r.done(), "unpackState: trailing bytes (netlist/state mismatch)");
  retry_.clear();  // the restored cycle has no monitored predecessor
  sparseSeedValid_ = false;  // arbitrary state replacement: reseed stateful set
}

}  // namespace esl
