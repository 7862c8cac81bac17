//===- counterexample/LookaheadSensitiveSearch.cpp -------------*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//

#include "counterexample/LookaheadSensitiveSearch.h"

#include "support/FaultInjection.h"
#include "support/Metrics.h"
#include "support/TerminalSetPool.h"

#include <algorithm>
#include <deque>
#include <unordered_map>

using namespace lalrcex;

std::vector<StateItemGraph::NodeId> LssPath::nodes() const {
  std::vector<StateItemGraph::NodeId> Out;
  Out.reserve(Steps.size());
  for (const LssStep &S : Steps)
    Out.push_back(S.Node);
  return Out;
}

//===----------------------------------------------------------------------===//
// Search over (state-item, conflict-terminal bit) keys
//===----------------------------------------------------------------------===//

std::optional<LssPath> lalrcex::shortestLookaheadSensitivePath(
    const StateItemGraph &Graph, StateItemGraph::NodeId ConflictNode,
    Symbol ConflictTerm, bool PruneToReaching, ResourceGuard *Guard,
    LssStats *Stats, MetricsRegistry *Metrics) {
  ScopedTimer Timer(Metrics, metric::TimeLssNs);
  const Automaton &M = Graph.automaton();
  const Grammar &G = M.grammar();
  const GrammarAnalysis &Analysis = M.analysis();

  if (LALRCEX_FAULT_FIRES(LssPathFailure, 0))
    return std::nullopt;
  if (ConflictNode >= Graph.numNodes())
    throw SearchError("lss path: conflict node out of range");

  // Only explore state-items that can reach the conflict item at all.
  std::vector<bool> Relevant =
      PruneToReaching ? Graph.nodesReaching(ConflictNode)
                      : std::vector<bool>(Graph.numNodes(), true);

  StateItemGraph::NodeId StartNode =
      Graph.nodeFor(M.startState(), Item(G.augmentedProduction(), 0));
  if (StartNode == StateItemGraph::InvalidNode)
    throw SearchError("lss path: start item missing from start state");

  // Thread-local overlay over the graph's frozen pool for the lookahead
  // sets of the returned path; the guard is charged for what it interns.
  TerminalSetPool Pool = TerminalSetPool::overlay(Graph.pool(), Guard);

  size_t Expanded = 0, Enqueued = 0, Pruned = 0;
  auto finish = [&] {
    const TerminalSetPool::Stats &PS = Pool.stats();
    if (Metrics) {
      Metrics->add(metric::LssSearches);
      Metrics->add(metric::LssExpanded, Expanded);
      Metrics->add(metric::LssEnqueued, Enqueued);
      Metrics->add(metric::LssDominancePruned, Pruned);
      Metrics->add(metric::LssUnionCalls, PS.UnionCalls);
      Metrics->add(metric::LssUnionCacheHits, PS.UnionCacheHits);
      Metrics->gaugeMax(metric::LssPoolArenaBytes, PS.ArenaBytes);
    }
    if (!Stats)
      return;
    Stats->Expanded = Expanded;
    Stats->Enqueued = Enqueued;
    Stats->DominancePruned = Pruned;
    Stats->SubsetChecks = 0;
    Stats->PoolWideSets = PS.WideSets;
    Stats->PoolArenaBytes = PS.ArenaBytes;
    Stats->UnionCalls = PS.UnionCalls;
    Stats->UnionCacheHits = PS.UnionCacheHits;
  };

  if (!Relevant[StartNode]) {
    finish();
    return std::nullopt;
  }

  // The goal only asks whether the conflict terminal t is in L, and
  // followL acts on each element alone, so the search runs over keys
  // (node, t ∈ L): key = 2 * node + bit. The first vertex to reach a key
  // is the one the exact-L reference BFS keeps (DESIGN.md §5e).
  constexpr int32_t Unseen = -2;
  struct KeyInfo {
    int32_t Parent = Unseen; ///< parent key, -1 for the start key
    LssStep::Kind EdgeKind = LssStep::Start;
  };
  std::vector<KeyInfo> Keys(size_t(Graph.numNodes()) * 2);

  // Unit edge costs make Dial's bucket queue two flat buckets: the depth
  // being drained and the depth being filled. Draining front-to-back
  // reproduces the reference BFS's FIFO order exactly.
  std::vector<int32_t> Buckets[2];
  std::vector<int32_t> *CurB = &Buckets[0], *NextB = &Buckets[1];

  auto enqueue = [&](int32_t Key, int32_t Parent, LssStep::Kind Kind) {
    if (Keys[Key].Parent != Unseen) {
      ++Pruned;
      return;
    }
    Keys[Key] = KeyInfo{Parent, Kind};
    NextB->push_back(Key);
    ++Enqueued;
  };

  enqueue(int32_t(StartNode) * 2 + (G.eof() == ConflictTerm), -1,
          LssStep::Start);
  std::swap(CurB, NextB); // the start vertex is depth 0

  const int32_t GoalKey = int32_t(ConflictNode) * 2 + 1;
  bool Found = false;
  while (!CurB->empty() && !Found) {
    for (size_t H = 0; H != CurB->size(); ++H) {
      // The BFS is polynomial and fast, but a cancelled or exhausted
      // guard must still be able to stop it (the "never hang" contract).
      if (Guard && Guard->step() != GuardStop::None) {
        finish();
        return std::nullopt;
      }
      int32_t K = (*CurB)[H];
      ++Expanded;
      if (K == GoalKey) {
        Found = true;
        break;
      }
      StateItemGraph::NodeId N = StateItemGraph::NodeId(K >> 1);
      bool Bit = K & 1;

      // Transition edge: the lookahead set, and so the bit, is preserved.
      StateItemGraph::NodeId Succ = Graph.forwardTransition(N);
      if (Succ != StateItemGraph::InvalidNode && Relevant[Succ])
        enqueue(int32_t(Succ) * 2 + Bit, K, LssStep::Transition);

      // Production-step edges: t ∈ followL(item) iff t begins the suffix,
      // or the suffix is nullable and t was already in L (paper §4).
      const Item &Itm = Graph.itemOf(N);
      Symbol Next = Itm.afterDot(G);
      if (Next.valid() && G.isNonterminal(Next)) {
        bool StepBit =
            Analysis.suffixCanBeginWith(Itm.Prod, Itm.Dot + 1, ConflictTerm) ||
            (Bit && Analysis.suffixNullable(Itm.Prod, Itm.Dot + 1));
        for (StateItemGraph::NodeId Step : Graph.productionSteps(N))
          if (Relevant[Step])
            enqueue(int32_t(Step) * 2 + StepBit, K, LssStep::Production);
      }
    }
    CurB->clear();
    std::swap(CurB, NextB);
  }

  if (!Found) {
    finish();
    return std::nullopt;
  }

  // Walk the parent chain, then recompute each vertex's precise lookahead
  // set forward from {$}: L is a function of the path.
  std::vector<int32_t> Chain;
  for (int32_t K = GoalKey; K >= 0; K = Keys[K].Parent)
    Chain.push_back(K);
  std::reverse(Chain.begin(), Chain.end());

  LssPath Path;
  Path.Steps.reserve(Chain.size());
  TerminalSetPool::SetId L = Pool.singleton(G.eof().id());
  for (size_t I = 0; I != Chain.size(); ++I) {
    StateItemGraph::NodeId N = StateItemGraph::NodeId(Chain[I] >> 1);
    LssStep::Kind Kind = Keys[Chain[I]].EdgeKind;
    if (Kind == LssStep::Production) {
      const Item &Prev =
          Graph.itemOf(StateItemGraph::NodeId(Chain[I - 1] >> 1));
      TerminalSetPool::SetId Follow =
          Analysis.firstOfSequenceId(Prev.Prod, Prev.Dot + 1);
      L = Analysis.suffixNullable(Prev.Prod, Prev.Dot + 1)
              ? Pool.unionSets(Follow, L)
              : Follow;
    }
    Path.Steps.push_back(LssStep{N, Kind, Pool.materialize(L)});
  }
  finish();
  return Path;
}

//===----------------------------------------------------------------------===//
// Reference implementation (pre-pool), retained for equivalence testing
// and the pooled-vs-baseline benchmark sections.
//===----------------------------------------------------------------------===//

namespace {

/// A discovered vertex of the lookahead-sensitive graph, linked to its BFS
/// parent for path reconstruction.
struct Vertex {
  StateItemGraph::NodeId Node;
  IndexSet Lookaheads;
  int Parent;
  LssStep::Kind EdgeKind;
};

} // namespace

std::optional<LssPath> lalrcex::shortestLookaheadSensitivePathReference(
    const StateItemGraph &Graph, StateItemGraph::NodeId ConflictNode,
    Symbol ConflictTerm, bool PruneToReaching, ResourceGuard *Guard) {
  const Automaton &M = Graph.automaton();
  const Grammar &G = M.grammar();
  const GrammarAnalysis &Analysis = M.analysis();

  if (LALRCEX_FAULT_FIRES(LssPathFailure, 0))
    return std::nullopt;
  if (ConflictNode >= Graph.numNodes())
    throw SearchError("lss path: conflict node out of range");

  // Only explore state-items that can reach the conflict item at all.
  std::vector<bool> Relevant =
      PruneToReaching ? Graph.nodesReaching(ConflictNode)
                      : std::vector<bool>(Graph.numNodes(), true);

  StateItemGraph::NodeId StartNode =
      Graph.nodeFor(M.startState(), Item(G.augmentedProduction(), 0));
  if (StartNode == StateItemGraph::InvalidNode)
    throw SearchError("lss path: start item missing from start state");
  if (!Relevant[StartNode])
    return std::nullopt;

  std::vector<Vertex> Vertices;
  // Visited lookahead sets per node, compared exactly (hashing alone would
  // risk dropping a genuinely new vertex on collision).
  std::unordered_map<StateItemGraph::NodeId, std::vector<IndexSet>> Visited;
  std::deque<int> Work;

  auto enqueue = [&](StateItemGraph::NodeId Node, IndexSet L, int Parent,
                     LssStep::Kind Kind) {
    std::vector<IndexSet> &Seen = Visited[Node];
    for (const IndexSet &Prev : Seen)
      if (Prev == L)
        return;
    Seen.push_back(L);
    Vertices.push_back(Vertex{Node, std::move(L), Parent, Kind});
    Work.push_back(int(Vertices.size()) - 1);
  };

  IndexSet StartL(G.numTerminals());
  StartL.insert(G.eof().id());
  enqueue(StartNode, std::move(StartL), -1, LssStep::Start);

  int Goal = -1;
  while (!Work.empty() && Goal < 0) {
    // The BFS is polynomial and fast, but a cancelled or exhausted guard
    // must still be able to stop it (the "never hang" contract).
    if (Guard && Guard->step() != GuardStop::None)
      return std::nullopt;
    int VI = Work.front();
    Work.pop_front();
    // Note: Vertices may reallocate inside the loop; index anew each time.
    StateItemGraph::NodeId N = Vertices[VI].Node;

    // Goal test.
    if (N == ConflictNode &&
        Vertices[VI].Lookaheads.contains(ConflictTerm.id())) {
      Goal = VI;
      break;
    }

    // Transition edge: the precise lookahead set is preserved.
    StateItemGraph::NodeId Succ = Graph.forwardTransition(N);
    if (Succ != StateItemGraph::InvalidNode && Relevant[Succ]) {
      IndexSet L = Vertices[VI].Lookaheads;
      enqueue(Succ, std::move(L), VI, LssStep::Transition);
    }

    // Production-step edges: L becomes followL(item) (paper §4).
    const Item &Itm = Graph.itemOf(N);
    Symbol Next = Itm.afterDot(G);
    if (Next.valid() && G.isNonterminal(Next)) {
      const Production &P = G.production(Itm.Prod);
      IndexSet Follow = Analysis.firstOfSequence(P.Rhs, Itm.Dot + 1,
                                                 &Vertices[VI].Lookaheads);
      for (StateItemGraph::NodeId Step : Graph.productionSteps(N)) {
        if (!Relevant[Step])
          continue;
        enqueue(Step, Follow, VI, LssStep::Production);
      }
    }
  }

  if (Goal < 0)
    return std::nullopt;

  LssPath Path;
  for (int VI = Goal; VI >= 0; VI = Vertices[VI].Parent)
    Path.Steps.push_back(LssStep{Vertices[VI].Node, Vertices[VI].EdgeKind,
                                 Vertices[VI].Lookaheads});
  std::reverse(Path.Steps.begin(), Path.Steps.end());
  return Path;
}
