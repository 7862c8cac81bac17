//===- tests/LssEquivalenceTest.cpp - Pooled vs reference LSS --*- C++ -*-===//
//
// Part of lalrcex.
//
// The production lookahead-sensitive search (a BFS over (state-item,
// conflict-terminal bit) keys, lookahead sets recomputed along the found
// path only) must return the exact path — node for node, edge kind for
// edge kind, lookahead set for lookahead set — that the retained
// reference BFS over (state-item, lookahead set) vertices returns.
// DESIGN.md §5e proves this; the suite checks it over the worked corpus
// grammars, the imported sql.y and ansi_c.y, conflicts on $, and a
// random-grammar sweep, with the §6 reachability pruning on and off.
//
//===----------------------------------------------------------------------===//

#include "RandomGrammar.h"
#include "corpus/Corpus.h"
#include "counterexample/LookaheadSensitiveSearch.h"
#include "grammar/GrammarParser.h"
#include "lr/ParseTable.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace lalrcex;
using lalrcex::testing::randomGrammarText;

namespace {

/// Runs both implementations on every reported conflict of \p T and
/// asserts step-for-step equality.
void expectEquivalentPaths(const Grammar &G, const Automaton &M,
                           const ParseTable &T,
                           const std::string &Context) {
  StateItemGraph Graph(M);
  for (const Conflict &C : T.reportedConflicts()) {
    StateItemGraph::NodeId Node = Graph.nodeFor(C.State, C.reduceItem(G));
    for (bool Prune : {true, false}) {
      LssStats Stats;
      std::optional<LssPath> Pooled = shortestLookaheadSensitivePath(
          Graph, Node, C.Token, Prune, /*Guard=*/nullptr, &Stats);
      std::optional<LssPath> Ref = shortestLookaheadSensitivePathReference(
          Graph, Node, C.Token, Prune);

      ASSERT_EQ(Pooled.has_value(), Ref.has_value())
          << Context << "\nconflict " << C.describe(G)
          << " prune=" << Prune;
      if (!Pooled)
        continue;
      ASSERT_EQ(Pooled->Steps.size(), Ref->Steps.size())
          << Context << "\nconflict " << C.describe(G)
          << " prune=" << Prune;
      for (size_t I = 0; I != Pooled->Steps.size(); ++I) {
        const LssStep &P = Pooled->Steps[I], &R = Ref->Steps[I];
        ASSERT_EQ(P.Node, R.Node)
            << Context << "\nstep " << I << " of " << C.describe(G);
        ASSERT_EQ(P.EdgeKind, R.EdgeKind)
            << Context << "\nstep " << I << " of " << C.describe(G);
        ASSERT_EQ(P.Lookaheads, R.Lookaheads)
            << Context << "\nstep " << I << " of " << C.describe(G);
      }
      // The stats hook observed the search that just ran, and each
      // (node, bit) key was expanded at most once.
      EXPECT_GT(Stats.Expanded, 0u) << Context;
      EXPECT_GE(Stats.Enqueued, Pooled->Steps.size()) << Context;
      EXPECT_LE(Stats.Expanded, 2 * size_t(Graph.numNodes())) << Context;
      EXPECT_EQ(Stats.SubsetChecks, 0u) << Context;
    }
  }
}

class LssCorpusEquivalenceTest
    : public ::testing::TestWithParam<const char *> {};

TEST_P(LssCorpusEquivalenceTest, PooledMatchesReference) {
  const CorpusEntry *E = findCorpusEntry(GetParam());
  ASSERT_NE(E, nullptr);
  std::optional<Grammar> G = parseGrammarText(E->Text);
  ASSERT_TRUE(G);
  GrammarAnalysis A(*G);
  Automaton M(*G, A);
  ParseTable T(M);
  expectEquivalentPaths(*G, M, T, E->Name);
}

INSTANTIATE_TEST_SUITE_P(Corpus, LssCorpusEquivalenceTest,
                         ::testing::Values("figure1", "figure3", "SQL.2",
                                           "Pascal.1", "C.1", "Java.1"));

/// The imported full-size grammars: sql.y's LSS graph is the largest the
/// project ships. The reference BFS takes about 5 s on sql.y with the
/// pruning on and 4.5 s more with it off (RelWithDebInfo, one core), so
/// both prunings are checked.
class LssImportedEquivalenceTest
    : public ::testing::TestWithParam<const char *> {};

TEST_P(LssImportedEquivalenceTest, PooledMatchesReference) {
  std::string Path = std::string(LALRCEX_EXAMPLE_GRAMMARS) + "/" + GetParam();
  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In) << Path;
  std::ostringstream Text;
  Text << In.rdbuf();
  GrammarParseResult R = parseGrammar(Text.str());
  ASSERT_TRUE(R.ok()) << R.renderDiagnostics(Text.str());
  GrammarAnalysis A(*R.G);
  Automaton M(*R.G, A);
  ParseTable T(M);
  ASSERT_FALSE(T.reportedConflicts().empty()) << Path;
  expectEquivalentPaths(*R.G, M, T, Path);
}

INSTANTIATE_TEST_SUITE_P(Imported, LssImportedEquivalenceTest,
                         ::testing::Values("sql.y", "ansi_c.y"));

/// Conflicts whose terminal is $: the search starts at key bit 1, and
/// the second grammar needs that bit carried through nullable suffixes.
TEST(LssEofConflictTest, PooledMatchesReference) {
  for (const char *Text : {
           "%%\n"
           "S : A | B ;\n"
           "A : a ;\n"
           "B : a ;\n",
           "%%\n"
           "S : a X ;\n"
           "X : Y Z | W ;\n"
           "Y : ;\n"
           "Z : ;\n"
           "W : ;\n",
       }) {
    std::optional<Grammar> G = parseGrammarText(Text);
    ASSERT_TRUE(G) << Text;
    GrammarAnalysis A(*G);
    Automaton M(*G, A);
    ParseTable T(M);
    bool SawEof = false;
    for (const Conflict &C : T.reportedConflicts())
      SawEof |= C.Token == G->eof();
    ASSERT_TRUE(SawEof) << Text;
    expectEquivalentPaths(*G, M, T, Text);
  }
}

/// The keyed search visits each (node, bit) key at most once, so its work
/// is O(nodes) on every conflict of every corpus grammar.
TEST(LssBoundTest, ExpandedAtMostTwiceTheNodesOnEveryCorpusConflict) {
  size_t Conflicts = 0;
  for (const CorpusEntry &E : corpus()) {
    std::optional<Grammar> G = parseGrammarText(E.Text);
    ASSERT_TRUE(G) << E.Name;
    GrammarAnalysis A(*G);
    if (!A.isProductive(G->startSymbol()))
      continue;
    Automaton M(*G, A);
    ParseTable T(M);
    StateItemGraph Graph(M);
    for (const Conflict &C : T.reportedConflicts()) {
      StateItemGraph::NodeId Node =
          Graph.nodeFor(C.State, C.reduceItem(*G));
      LssStats Stats;
      std::optional<LssPath> Path = shortestLookaheadSensitivePath(
          Graph, Node, C.Token, /*PruneToReaching=*/true, nullptr, &Stats);
      ASSERT_TRUE(Path) << E.Name << ": " << C.describe(*G);
      ASSERT_LE(Stats.Expanded, 2 * size_t(Graph.numNodes()))
          << E.Name << ": " << C.describe(*G);
      ASSERT_LE(Stats.Enqueued, 2 * size_t(Graph.numNodes())) << E.Name;
      ++Conflicts;
    }
  }
  EXPECT_GT(Conflicts, 100u);
}

class LssRandomEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(LssRandomEquivalenceTest, PooledMatchesReference) {
  uint64_t Seed = uint64_t(GetParam()) + 9000;
  std::string Text =
      randomGrammarText(Seed, 4 + unsigned(Seed % 5), 3 + unsigned(Seed % 4));
  std::optional<Grammar> G = parseGrammarText(Text);
  ASSERT_TRUE(G) << Text;
  GrammarAnalysis A(*G);
  if (!A.isProductive(G->startSymbol()))
    GTEST_SKIP() << "start symbol unproductive for this seed";
  Automaton M(*G, A);
  ParseTable T(M);
  expectEquivalentPaths(*G, M, T, Text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LssRandomEquivalenceTest,
                         ::testing::Range(0, 40));

/// The pooled automaton fixpoints must produce exactly the lookahead
/// tables the baseline IndexSet fixpoints produce, for both automaton
/// kinds (the canonical path pools only its closure fixpoint).
class AutomatonPoolEquivalenceTest
    : public ::testing::TestWithParam<const char *> {};

TEST_P(AutomatonPoolEquivalenceTest, PooledLookaheadsMatchBaseline) {
  const CorpusEntry *E = findCorpusEntry(GetParam());
  ASSERT_NE(E, nullptr);
  std::optional<Grammar> G = parseGrammarText(E->Text);
  ASSERT_TRUE(G);
  GrammarAnalysis A(*G);
  for (AutomatonKind Kind :
       {AutomatonKind::Lalr1, AutomatonKind::Canonical}) {
    AutomatonOptions Pooled{Kind, /*PooledSets=*/true};
    AutomatonOptions Baseline{Kind, /*PooledSets=*/false};
    Automaton MP(*G, A, Pooled);
    Automaton MB(*G, A, Baseline);
    ASSERT_EQ(MP.numStates(), MB.numStates()) << E->Name;
    for (unsigned S = 0; S != MP.numStates(); ++S) {
      const Automaton::State &SP = MP.state(S), &SB = MB.state(S);
      ASSERT_EQ(SP.Items, SB.Items) << E->Name << " state " << S;
      ASSERT_EQ(SP.Lookaheads.size(), SB.Lookaheads.size())
          << E->Name << " state " << S;
      for (size_t I = 0; I != SP.Lookaheads.size(); ++I)
        ASSERT_EQ(SP.Lookaheads[I], SB.Lookaheads[I])
            << E->Name << " state " << S << " item " << I;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, AutomatonPoolEquivalenceTest,
                         ::testing::Values("figure1", "figure3", "SQL.2",
                                           "Pascal.1", "C.1"));

} // namespace
