// SimContext: the cycle-accurate evaluation kernel.
//
// Owns the channel SignalBoard (struct-of-arrays signal storage, see
// elastic/signal_board.h) and drives the two-phase cycle:
//   1. settle(): combinational fixed-point (throws CombinationalCycleError if
//      the network oscillates, i.e. there is a combinational cycle in data or
//      control);
//   2. edge(): clockEdge() on every node, advancing sequential state.
//
// Two settle kernels are available:
//   * kSweep — the reference kernel: evalComb() over every node, sweep until
//     no signal changes anywhere;
//   * kEventDriven (default) — sparse worklist kernel: seeds the nodes whose
//     evaluation can differ from the previous settled cycle (everything with
//     sequential state or choice bits; all nodes after reset), then
//     re-evaluates only nodes whose adjacent channel signals actually changed,
//     using the netlist's channel→reader adjacency index. Signals are retained
//     across cycles, so untouched combinational regions are never re-visited.
//
// The edge phase is dirty-tracked to match: with the settled signals in
// bitplanes, the transfer/kill event masks of 64 channels at a time come from
// a handful of word ops, and edge() clocks only the nodes adjacent to an
// actual event plus the nodes whose EdgeActivity hint demands every cycle.
// The full clockEdge sweep remains the reference path (sweep kernel, and any
// cycle whose signals were written outside the event kernel).
// setCrossCheck(true) runs both settle kernels every cycle and throws
// InternalError on any disagreement (the equivalence harness in
// tests/test_sim_kernel.cpp); its edge runs the full sweep while auditing the
// EdgeActivity declarations — a node the dirty-tracker would have skipped must
// leave its packState() bytes unchanged.
//
// --- Shards: one event-kernel loop --------------------------------------------
//
// The event-driven settle and the dirty-tracked edge are one loop each
// (settleWith/edgeWith below), written over shards. setShards(N) partitions
// ONE netlist into N contiguous node blocks; the default N = 1 is the serial
// cycle, in which one shard owns every node, so there is no boundary
// region, no staging, no barrier round and no ownership filter, and the
// shard body runs directly on the calling thread. With N > 1 each cycle
// runs shard-parallel on a work-stealing Executor:
//   * settle: level-synchronous rounds. Within a round every shard drains its
//     own worklist (interior channels — both endpoints owned — live in
//     shard-exclusive bitplane ranges), while writes to boundary channels are
//     staged in the SignalBoard's back copy. Between rounds a serial barrier
//     step publishes changed boundary values and seeds their cross-shard
//     readers; the settle ends when a round stages no boundary change and
//     every worklist is empty. The result is the same unique fixed point one
//     shard reaches, so settled signals — and therefore packState() — are
//     bit-identical for every shard count.
//   * edge: each shard sweeps its interior plane range (plus the boundary
//     region, filtered by ownership) for event bits and clocks only its own
//     nodes. clockEdge writes only its own node's state (its arena record,
//     cache-line-separated between shards, or node-object statistics), so no
//     synchronization is needed beyond the join barrier.
// A settle that throws (CombinationalCycleError, a node's own error) leaves
// the context usable at every shard count: staging is switched off and the
// next settle re-seeds every node.
// With N > 1, per-cycle choice bits are pre-resolved serially before the
// parallel phases (one shard resolves them lazily). The provider must be a
// pure function of (node, index) per cycle — see sim::Simulator, whose
// provider hashes (seed, cycle, node, index) — which keeps resolution
// order-independent and the cache read-only under workers.
//
// The context also resolves per-cycle nondeterministic choice bits for
// environment nodes (random under simulation, enumerated under verification)
// and optionally monitors the SELF protocol properties of paper §3.1 on every
// channel (Retry+/Retry-, kill/stop exclusion, persistence).
//
// --- SELF protocol monitor --------------------------------------------------
//
// checkProtocol() works on the bitplanes, 64 channels per word, and keeps no
// copy of the previous cycle's board:
//   * kill/stop exclusion is vf&vb&(sf|sb) per plane group;
//   * the monitored edge records the next cycle's Retry± obligations as
//     per-group masks — Retry+ vf&sf&~vb (with the payloads of those slots
//     only), Retry- vb&sb&~vf — and the next check visits only the groups
//     that hold one. Retry+ is filtered by a persistence mask plane at check
//     time (the topology then in force decides, as after a mid-run surgery);
//   * obligations follow their channels across a relayout (surgery, shard
//     count change): surviving channels keep theirs, new channels start
//     with none, removed ones drop theirs.
// Only flagged channels reach the per-channel reporting path, which emits
// the messages in live-channel (ascending id) order whatever the slot
// permutation, so the reports are identical on every backend and shard
// count.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "elastic/netlist.h"
#include "elastic/signal_board.h"

namespace esl {

class Executor;
class StateWriter;

namespace compile {
class Vm;
}

class SimContext {
 public:
  enum class SettleKernel {
    kSweep,        ///< dense fixed-point sweep over all nodes (reference)
    kEventDriven,  ///< sparse worklist driven by signal-change events
  };

  /// Lowering mode of the event-driven cycle phases' program (compile/).
  enum class Backend {
    kInterpreted,  ///< unspecialized: every op a virtual evalComb/clockEdge
    kCompiled,     ///< specialized ops over raw board offsets (compile/vm.h)
  };
  /// What a context starts with and sim::SimOptions inherits.
  static constexpr Backend kDefaultBackend = Backend::kCompiled;

  /// The netlist must outlive the context and is validated on construction.
  explicit SimContext(Netlist& netlist);
  ~SimContext();

  Netlist& netlist() { return netlist_; }
  const Netlist& netlist() const { return netlist_; }

  /// Resets all node state and signals; cycle counter back to 0.
  void reset();

  /// Runs one full cycle: choices -> settle -> protocol check -> edge.
  void step();

  /// Phase pieces (the model checker drives them separately).
  void settle();
  void checkProtocol();
  void edge();

  std::uint64_t cycle() const { return cycle_; }

  // --- Settle kernel selection ----------------------------------------------

  void setKernel(SettleKernel kernel) { kernel_ = kernel; }
  SettleKernel kernel() const { return kernel_; }
  /// Run BOTH kernels each settle from the same pre-settle signals and throw
  /// InternalError on any per-channel disagreement. With shards configured the
  /// event side runs sharded, so this doubles as the sharded-vs-serial oracle.
  void setCrossCheck(bool enabled) { crossCheck_ = enabled; }
  bool crossCheck() const { return crossCheck_; }

  /// Shard the netlist across `n` worker lanes (1 = serial, the default; 0
  /// reads as 1). Settled signals and packState() are bit-identical for every
  /// value. Throws EslError above kMaxShards.
  void setShards(unsigned n);
  static constexpr unsigned kMaxShards = 64;
  unsigned shards() const { return shards_; }

  /// Selects how the event-driven kernel's program is lowered. Both backends
  /// run the one bytecode dispatcher (compile/vm.h) over the netlist lowered
  /// once (again whenever the topology, the board layout or the backend
  /// moves): kCompiled specializes each catalog node to raw board offsets,
  /// kInterpreted keeps every node a virtual evalComb/clockEdge. Settled
  /// signals and packState() are bit-identical, and both read and write the
  /// same node-state arena (state()), so switching backends, kernels or
  /// shard counts at any cycle boundary needs no state transfer. Applies
  /// when kernel() == kEventDriven (the sweep kernel stays virtual — it is
  /// the reference oracle) and composes with setShards: boundary-adjacent
  /// nodes stay virtual (staging-aware), so the sharded cycle reaches the
  /// same fixpoint. With setCrossCheck(true) the selected lowering is what
  /// the sweep audits. A context starts on kDefaultBackend.
  void setBackend(Backend backend) { backend_ = backend; }
  Backend backend() const { return backend_; }
  /// The event kernel's per-node dispatcher (compile/vm.h), built on first
  /// use; its program is the lowering of the last event-kernel phase.
  compile::Vm& vm();

  /// External code that writes channel signals directly (outside evalComb)
  /// must call this before the next settle() so the event-driven kernel
  /// re-seeds every node instead of trusting retained signals.
  void invalidateSignals() {
    needFullSeed_ = true;
    changeTrackValid_ = false;
    edgeTrackValid_ = false;
    sparseSeedValid_ = false;
  }

  /// Mutable/read-only accessor proxies into the SignalBoard.
  Sig sig(ChannelId ch) { return {board_, slotOrThrow(ch)}; }
  ConstSig sig(ChannelId ch) const {
    return {board_, slotOrThrow(ch)};
  }

  /// The signal board itself (word-parallel consumers: statistics sweeps).
  const SignalBoard& board() const { return board_; }

  // --- Node-state arena ------------------------------------------------------

  /// The state record of a node whose kind keeps its sequential state in the
  /// arena (Node::stateWords() > 0): the only copy of that state, read and
  /// written by both backends. Records are laid out with the board (reset and
  /// every topology or shard relayout, which keeps each surviving node's
  /// record and starts a spliced-in node from its reset record), so a node
  /// is addressable from the first settle/edge after it joined the netlist.
  /// The mutable overload is the kernels' unchecked hot path; the const one,
  /// for reads from outside a cycle, checks that the node has a record.
  std::uint64_t* state(const Node& node) {
    return state_.data() + stateOff_[node.id()];
  }
  const std::uint64_t* state(const Node& node) const {
    ESL_CHECK(node.id() < stateOff_.size() && stateOff_[node.id()] != kNoState,
              "SimContext::state: node '" + node.name() +
                  "' has no state record (no arena state, or added after the "
                  "last settle/reset)");
    return state_.data() + stateOff_[node.id()];
  }

  // --- Nondeterministic choices ---------------------------------------------

  /// Total choice bits consumed per cycle by all nodes.
  unsigned totalChoices() const { return totalChoices_; }

  /// Fixes this cycle's choice assignment (verification). Cleared after edge().
  void setChoices(std::vector<bool> bits);
  /// Copying variant for callers that replay one precomputed assignment many
  /// times (the model checker's combo enumeration): reuses the internal
  /// buffer's capacity instead of consuming the argument.
  void setChoicesFrom(const std::vector<bool>& bits);

  /// Fallback provider used when no explicit assignment is set (simulation).
  /// Must be stable within a cycle AND order-independent across queries —
  /// i.e. a pure function of (node, index) for the current cycle — because
  /// the kernels (serial and sharded) resolve slots in evaluation order.
  void setChoiceProvider(std::function<bool(NodeId, unsigned)> fn);

  /// Read by nodes inside evalComb/clockEdge; stable within a cycle.
  bool choice(const Node& node, unsigned idx);

  // --- Protocol monitoring ---------------------------------------------------

  /// Enables the monitor in step() and the Retry± bookkeeping of edge(). A
  /// cycle's Retry± obligations are recorded only by a monitored edge, so
  /// they are checked from the second monitored cycle on.
  void setProtocolChecking(bool enabled) { protocolChecking_ = enabled; }
  void setThrowOnViolation(bool enabled) { throwOnViolation_ = enabled; }
  const std::vector<std::string>& protocolViolations() const { return violations_; }
  void clearProtocolViolations() { violations_.clear(); }

  // --- State snapshots (model checker) ---------------------------------------

  /// packState() snapshots begin with a 16-byte versioned header: magic u32,
  /// version u32, cycle u64 (all little-endian), then the raw per-node state
  /// bytes. The cycle counter rides in the header so a cross-backend or
  /// cross-context resume keeps every cycle-gated environment node (gated
  /// sources/sinks, every-cycle env nodes) in phase. packStateInto() — the
  /// model checker's per-transition path — stays headerless: the checker
  /// compares states within one fixed context, and the cycle counter would
  /// blow up its state space. unpackState() accepts both (header sniffed).
  static constexpr std::uint32_t kSnapshotMagic = 0xE51A7E01;
  static constexpr std::uint32_t kSnapshotVersion = 1;

  std::vector<std::uint8_t> packState() const;
  /// Allocation-free variant: clears `out` but reuses its capacity. This is
  /// the model checker's per-transition fast path (one full-netlist snapshot
  /// per explored edge).
  void packStateInto(std::vector<std::uint8_t>& out) const;
  void unpackState(const std::vector<std::uint8_t>& bytes);

 private:
  std::uint32_t slotOrThrow(ChannelId ch) const {
    const std::uint32_t slot = board_.slotOf(ch);
    ESL_CHECK(slot != SignalBoard::kNoSlot,
              "SimContext::sig: channel " + std::to_string(ch) +
                  " has no signal slot (removed, or created after the last "
                  "settle/reset)");
    return slot;
  }

  struct Shard {
    std::vector<NodeId> owned;       ///< live nodes, ascending id
    std::vector<NodeId> alwaysEdge;  ///< owned nodes with kEveryCycle
    NodeId loId = 0, hiId = 0;       ///< id range [loId, hiId]
    std::size_t pending = 0;         ///< worklist size (gen-stamped membership)
    std::size_t cursorW = 0;         ///< lowest bitmap word that may be pending
    std::vector<NodeId> edgeList;    ///< per-edge scratch: nodes to clock
    std::vector<NodeId> clocked;     ///< stateful nodes clocked at last edge
                                     ///< (the next settle's seeds)
    /// Interior plane groups that may carry a token/anti-token ("hot"):
    /// maintained incrementally by the settle's change mirror, compacted
    /// lazily at the edge scan — the edge phase stays O(active), never
    /// O(channels/64), on large idle boards.
    std::vector<std::uint32_t> hotGroups;
  };

  void ensureTopologyCache();
  void resolveAllChoices();
  void rebuildHotGroups();
  /// Per-node re-evaluation budget (combinational-cycle guard): the sweep
  /// kernel's iteration bound, clamped so the count always fits the 24-bit
  /// field of evalMeta_.
  std::uint32_t evalBudget() const {
    const std::size_t raw = 2 * liveNodes_.size() + 8;
    return static_cast<std::uint32_t>(
        std::min<std::size_t>(raw, (std::size_t{1} << 24) - 1));
  }
  void markHotGroup(Shard& sh, std::uint32_t slot) {
    const std::uint32_t g = slot >> 6;
    if (!groupHot_[g] && board_.activityAtGroup(g) != 0) {
      groupHot_[g] = 1;
      sh.hotGroups.push_back(g);
    }
  }
  void settleSweep();
  void settleCrossChecked();
  void pushInto(Shard& sh, std::uint64_t gen, NodeId id) {
    const std::size_t w = id >> 6;
    if (pendingWordGen_[w] != gen) {
      pendingWordGen_[w] = gen;
      pendingBits_[w] = 0;
    }
    const std::uint64_t m = std::uint64_t{1} << (id & 63);
    if (!(pendingBits_[w] & m)) {
      pendingBits_[w] |= m;
      ++sh.pending;
      if (w < sh.cursorW) sh.cursorW = w;
    }
  }
  void seedShards(std::uint64_t gen);

  // --- the event-kernel loops --------------------------------------------------
  // One event-driven settle (settleWith) and one dirty-tracked edge
  // (edgeWith) serve every shard count — the serial cycle is the one-shard
  // case — and every backend: their one instantiation is the VM's
  // (compile/vm.h, a friend), whose per-node dispatch runs either lowering of
  // the program. Seeding, worklist order, change consumption and hot-group
  // maintenance — and therefore the settled fixpoint and the set of clocked
  // nodes — are identical by construction across backends and shard
  // counts.

  /// One shard's worklist drain (the body of settleWith). `eval(id)` must
  /// evaluate node `id`'s combinational function against the board.
  template <typename Eval>
  void drainShardWith(unsigned s, std::uint64_t gen, std::uint32_t maxEvals,
                      const Eval& eval) {
    // Interior-channel changes propagate immediately (both endpoints are
    // owned), boundary writes are staged on the board and published at the
    // next barrier.
    Shard& sh = shardState_[s];
    constexpr std::uint64_t kGenMask = (std::uint64_t{1} << 40) - 1;
    const std::uint64_t genLo = gen & kGenMask;
    while (sh.pending > 0) {
      while (pendingWordGen_[sh.cursorW] != gen || pendingBits_[sh.cursorW] == 0)
        ++sh.cursorW;
      const unsigned bit =
          static_cast<unsigned>(__builtin_ctzll(pendingBits_[sh.cursorW]));
      const NodeId id = static_cast<NodeId>(sh.cursorW * 64 + bit);
      pendingBits_[sh.cursorW] &= pendingBits_[sh.cursorW] - 1;
      --sh.pending;
      const std::uint64_t meta = evalMeta_[id];
      const std::uint64_t evals = ((meta & kGenMask) == genLo ? meta >> 40 : 0) + 1;
      if (evals > maxEvals)
        throw CombinationalCycleError(
            "combinational network did not stabilize: node '" +
            netlist_.node(id).name() + "' re-evaluated more than " +
            std::to_string(maxEvals) +
            " times (combinational cycle in data or control)");
      evalMeta_[id] = (evals << 40) | genLo;
      eval(id);

      bool selfChanged = false;
      const std::uint32_t aEnd = adjOffset_[id + 1];
      for (std::uint32_t a = adjOffset_[id]; a < aEnd; ++a) {
        const std::uint32_t slot = adjFlat_[a].slot;
        if (board_.inBoundary(slot)) continue;  // staged; the sync seeds readers
        if (!board_.consumeChanged(slot)) continue;
        markHotGroup(sh, slot);  // interior groups are owner-exclusive
        const NodeId other = adjFlat_[a].other;
        if (!nodeStateDriven_[other]) pushInto(sh, gen, other);
        selfChanged = true;
      }
      if (selfChanged && nodeUnaudited_[id]) pushInto(sh, gen, id);
    }
  }

  /// The event-driven settle: seed the shards' worklists, then drain them to
  /// the fixed point with `eval` — directly for one shard, as staged
  /// level-synchronous rounds for more (see the file header). Seeding tiers:
  /// after reset/rewiring every node; after a full (untracked) edge or an
  /// unpackState every stateful node; in dirty-tracked steady state only the
  /// per-cycle readers plus the nodes clocked at the preceding edge. The
  /// caller refreshes the topology cache.
  template <typename Eval>
  void settleWith(const Eval& eval) {
    // The board's changed bits mirror every un-consumed write, so change
    // tracking stays valid across cycles: this refresh runs once after
    // reset/rewiring/sweep interludes, not every settle.
    if (!changeTrackValid_) {
      board_.clearChanged();
      changeTrackValid_ = true;
      rebuildHotGroups();
    }
    const bool sharded = shards_ > 1;
    if (sharded) resolveAllChoices();

    const std::uint64_t gen = ++settleGen_;
    const std::uint32_t maxEvals = evalBudget();
    for (Shard& sh : shardState_) {
      sh.pending = 0;
      sh.cursorW = (static_cast<std::size_t>(sh.hiId) >> 6) + 1;
    }
    seedShards(gen);

    try {
      if (!sharded) {
        drainShardWith(0, gen, maxEvals, eval);
      } else {
        board_.setStagingActive(true);
        bool any = false;
        for (const Shard& sh : shardState_) any = any || sh.pending > 0;
        while (any) {
          // One level-synchronous round: every shard drains its worklist.
          parallelShards(
              [&](unsigned s) { drainShardWith(s, gen, maxEvals, eval); });
          // Barrier step (single-threaded): publish staged boundary changes
          // and seed their readers. Both endpoints are seeded — the
          // consumer-side reader of producer-driven fields, the producer-side
          // reader of consumer-driven fields, and the unaudited writer's
          // confirming re-eval all collapse into this conservative push. A
          // re-evaluation on unchanged inputs is a no-op, so the fixed point
          // is unaffected.
          any = false;
          board_.syncBoundary([&](ChannelId ch) {
            const Channel& c = netlist_.channel(ch);
            if (!nodeStateDriven_[c.producer])
              pushInto(shardState_[plan_.nodeShard[c.producer]], gen, c.producer);
            if (!nodeStateDriven_[c.consumer])
              pushInto(shardState_[plan_.nodeShard[c.consumer]], gen, c.consumer);
          });
          for (const Shard& sh : shardState_) any = any || sh.pending > 0;
        }
        board_.setStagingActive(false);
      }
    } catch (...) {
      // A node threw (CombinationalCycleError, its own error) mid-drain:
      // leave the board usable. Staged-but-unpublished boundary writes must
      // not swallow the next kernel's (or an external writer's) stores, and
      // the partly consumed change bits no longer cover every stale reader,
      // so the next settle re-seeds every node.
      board_.setStagingActive(false);
      invalidateSignals();
      throw;
    }
    edgeTrackValid_ = true;
  }

  /// The dirty-tracked clock edge: each shard clocks only its own nodes that
  /// (a) have a hint demanding every cycle or (b) are adjacent to a channel
  /// with an actual transfer/kill event — directly for one shard,
  /// shard-parallel for more.
  template <typename Clock>
  void edgeWith(const Clock& clock) {
    const std::uint64_t gen = ++edgeGen_;
    if (shards_ == 1)
      edgeShardWith<false>(0, gen, clock);
    else
      parallelShards([&](unsigned s) { edgeShardWith<true>(s, gen, clock); });
    sparseSeedValid_ = true;
  }

  /// One shard's edge (the body of edgeWith). The scan walks the shard's
  /// incrementally maintained hot-group list — 64 channels per entry, event
  /// masks word-parallel — and compacts groups that went quiet in passing,
  /// so a once-hot group costs one check, not a permanent entry. `kSharded`
  /// adds what a partition needs: marks filtered by ownership (the shared
  /// edge-mark bitmap is then written word-exclusively) and a scan of the
  /// shared boundary region. clock(id) must write only node id's own state
  /// (its arena record, its object). The clocked stateful nodes are the only
  /// ones whose state can differ at the next settle: they become the
  /// shard's seeds.
  template <bool kSharded, typename Clock>
  void edgeShardWith(unsigned s, std::uint64_t gen, const Clock& clock) {
    Shard& sh = shardState_[s];
    sh.edgeList.clear();
    const auto mark = [&](NodeId id) {
      if (id == kNoNode) return;  // padding slots carry no endpoints
      if constexpr (kSharded) {
        if (plan_.nodeShard[id] != s) return;
      }
      const std::size_t w = id >> 6;  // bitmap words are owner-exclusive
      if (edgeWordGen_[w] != gen) {
        edgeWordGen_[w] = gen;
        edgeBits_[w] = 0;
      }
      const std::uint64_t m = std::uint64_t{1} << (id & 63);
      if (!(edgeBits_[w] & m)) {
        edgeBits_[w] |= m;
        sh.edgeList.push_back(id);
      }
    };
    for (const NodeId id : sh.alwaysEdge) mark(id);
    std::size_t keep = 0;
    for (const std::uint32_t g : sh.hotGroups) {
      if (board_.activityAtGroup(g) == 0) {
        groupHot_[g] = 0;
        continue;
      }
      sh.hotGroups[keep++] = g;
      scanEventGroups(g, g + 1, mark);
    }
    sh.hotGroups.resize(keep);
    if constexpr (kSharded) {
      // The boundary region is shared and small: scan it unconditionally,
      // ownership-filtered by mark().
      const auto [blo, bhi] = board_.boundaryGroupRange();
      scanEventGroups(blo, bhi, mark);
    }
    for (const NodeId id : sh.edgeList) clock(id);
    sh.clocked.clear();
    for (const NodeId id : sh.edgeList)
      if (nodeStateful_[id]) sh.clocked.push_back(id);
  }

  /// Runs fn(shard) on the executor, one worker lane per shard (type-erased
  /// so the kernel-loop templates stay free of the executor header).
  void parallelShards(const std::function<void(unsigned)>& fn);
  /// Lays out the node-state arena for liveNodes_/plan_ (see state()).
  void layoutState();
  /// One node's snapshot bytes: its arena record, or its own packState().
  void packNode(const Node& node, StateWriter& w) const;
  void unpackNode(Node& node, StateReader& r);
  /// Serializes every live node's state (shared tail of packState and
  /// packStateInto; the former prepends the versioned snapshot header).
  void packNodeState(StateWriter& w) const;

  void edgeFull();
  void edgeAudited();
  void edgeEpilogue();

  // SELF monitor internals (see the file header).
  /// Rebuilds persistMask_ for the current board layout.
  void rebuildPersistMask();
  /// Records the settled board's Retry± obligations for the next check.
  void recordRetryObligations();
  /// Re-keys the obligations from `from`'s slots to `to`'s, by channel.
  void remapRetryObligations(const SignalBoard& from, const SignalBoard& to);
  /// Emits the findings' messages (sorted into report order).
  void reportFindings();

  /// Scans plane groups [lo, hi) for event bits, calling mark(node) on each
  /// adjacent endpoint (owner filtering is the caller's mark).
  template <typename Mark>
  void scanEventGroups(std::size_t lo, std::size_t hi, const Mark& mark) {
    for (std::size_t g = lo; g < hi; ++g) {
      if (board_.activityAtGroup(g) == 0) continue;
      std::uint64_t ev = board_.eventsAtGroup(g).any();
      while (ev != 0) {
        const unsigned bit = static_cast<unsigned>(__builtin_ctzll(ev));
        ev &= ev - 1;
        const std::uint32_t slot = static_cast<std::uint32_t>(g * 64 + bit);
        mark(board_.producerAtSlot(slot));
        mark(board_.consumerAtSlot(slot));
      }
    }
  }
  Executor& exec();

  friend class compile::Vm;

  Netlist& netlist_;
  SignalBoard board_;       ///< current signals (SoA)
  // Value-snapshot scratch boards (sweep convergence, cross-check pre/event),
  // re-laid only when the topology cache refreshes — never per settle.
  SignalBoard sweepScratch_;
  SignalBoard ccPre_;
  SignalBoard ccEvent_;
  std::uint64_t cycle_ = 0;

  // Event-driven kernel state (scratch, reused across settles).
  SettleKernel kernel_ = SettleKernel::kEventDriven;
  bool crossCheck_ = false;
  bool needFullSeed_ = true;
  /// The board's write-tracked changed bits reflect exactly the un-propagated
  /// writes (false after external writes / sweep settles, which bypass the
  /// consume loop).
  bool changeTrackValid_ = false;
  // Generation-stamped per-settle scratch (no O(capacity) clears per cycle).
  // The worklist is a bitmap (64 nodes per word, per-word gen stamps): the
  // lowest-id-first cursor scan touches kilobytes, not megabytes, per settle.
  std::uint64_t settleGen_ = 0;
  std::vector<std::uint64_t> pendingBits_;     ///< bit set → in worklist
  std::vector<std::uint64_t> pendingWordGen_;  ///< == settleGen_ → word valid
  /// Per-node eval budget (combinational-cycle guard), packed as
  /// count<<40 | gen&(2^40-1): one load/store per eval instead of two arrays.
  std::vector<std::uint64_t> evalMeta_;

  // Clock-edge dirty-tracking: valid whenever the event kernel settled the
  // board (events are then a pure bitplane function of the settled signals).
  bool edgeTrackValid_ = false;
  std::uint64_t edgeGen_ = 0;                 ///< dedup stamp for edge marks
  std::vector<std::uint64_t> edgeBits_;       ///< bitmap: already queued
  std::vector<std::uint64_t> edgeWordGen_;    ///< == edgeGen_ → word valid
  std::vector<std::uint8_t> groupHot_;        ///< membership flag per plane group

  // Sparse settle seeding: after a dirty-tracked edge, only the nodes that
  // were actually clocked (each shard's `clocked` list) can have changed
  // state, so the next settle seeds those plus the per-cycle readers instead
  // of every stateful node.
  bool sparseSeedValid_ = false;

  // Sharding: node partition + per-shard scratch + lazily built executor.
  unsigned shards_ = 1;
  ShardPlan plan_;
  std::vector<Shard> shardState_;
  std::unique_ptr<Executor> exec_;

  // Program lowering mode and the VM that runs it (compile/vm.h).
  Backend backend_ = kDefaultBackend;
  std::unique_ptr<compile::Vm> vm_;

  // Node-state arena: one u64 record per arena-backed node, in live-node
  // order; under sharding each shard's first record starts on a cache line,
  // so shard workers never false-share a record across a slice border.
  static constexpr std::uint32_t kNoState = ~std::uint32_t{0};
  std::vector<std::uint64_t> state_;
  std::vector<std::uint32_t> stateOff_;  ///< NodeId -> record offset, or kNoState

  // Per-topology caches (live ids, seed sets, adjacency), refreshed
  // whenever the netlist's topologyVersion moves (or the shard count does).
  std::uint64_t topologySeen_ = ~std::uint64_t{0};
  unsigned shardsSeen_ = 0;
  std::vector<NodeId> liveNodes_;
  std::vector<Node*> nodePtr_;  ///< cached per-id pointers
  /// Flattened channel→reader adjacency (CSR) with the board slot resolved at
  /// cache-build time: the drain loops walk one contiguous range per node.
  struct AdjEntry {
    std::uint32_t slot;
    NodeId other;
  };
  std::vector<std::uint32_t> adjOffset_;  ///< indexed by NodeId, size cap+1
  std::vector<AdjEntry> adjFlat_;
  std::vector<NodeId> seedNodes_;            ///< live nodes not kCombPure
  std::vector<NodeId> cycleSeedNodes_;       ///< per-cycle readers + unaudited
  std::vector<NodeId> choiceNodes_;          ///< live nodes with choiceCount>0
  std::vector<std::uint8_t> nodeUnaudited_;  ///< kUnaudited flag per node
  std::vector<std::uint8_t> nodeStateDriven_;  ///< kStateDriven flag per node
  std::vector<std::uint8_t> nodeEdgeOnEvents_;  ///< kOnEvents flag per node
  std::vector<std::uint8_t> nodeStateful_;      ///< !kCombPure flag per node
  std::vector<ChannelId> liveChannels_;

  // Choice bookkeeping: per-node offset into the per-cycle assignment. The
  // cache is two packed bitplanes (known/value) so the per-cycle clear — and
  // setChoicesFrom — is a word fill, not a byte loop.
  std::vector<unsigned> choiceOffset_;  // indexed by NodeId
  unsigned totalChoices_ = 0;
  std::vector<bool> fixedChoices_;
  bool hasFixedChoices_ = false;
  std::vector<std::uint64_t> choiceKnown_;  ///< bit set → value cached
  std::vector<std::uint64_t> choiceValue_;
  std::function<bool(NodeId, unsigned)> choiceProvider_;

  bool protocolChecking_ = false;
  bool throwOnViolation_ = false;
  std::vector<std::string> violations_;

  // SELF monitor state. The obligations are what the last monitored edge
  // left for the next check; an unmonitored edge, reset() and unpackState()
  // clear them.
  struct RetryWord {
    std::uint32_t group;  ///< plane group (slots group*64 .. group*64+63)
    std::uint64_t fwd;    ///< Retry+: vf&sf&~vb — the stopped token must stay
    std::uint64_t bwd;    ///< Retry-: vb&sb&~vf — the stopped anti-token must stay
  };
  std::vector<RetryWord> retry_;          ///< groups with an obligation, ascending
  /// The payload of each Retry+ slot, in slot order.
  std::vector<BitVec> retryData_;
  /// Per plane group: the live channels whose Retry+ is checked (persistent
  /// producers, Netlist::persistentChannels), for layout persistGeneration_.
  std::vector<std::uint64_t> persistMask_;
  std::uint64_t persistGeneration_ = 0;
  struct Finding {
    ChannelId ch;
    unsigned what;  ///< index into the message table, in report order
  };
  std::vector<Finding> findings_;  ///< per-check scratch: flagged channels
};

}  // namespace esl
