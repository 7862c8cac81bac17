//===- perfbench/Checks.cpp - Output checks of the benchmark ---*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

using namespace lalrcex;

namespace perfbench {

namespace {

/// A derivation tree is well-formed when every expanded node's children,
/// dot markers skipped, spell its production's right-hand side.
bool wellFormed(const Grammar &G, const DerivPtr &D) {
  if (!D)
    return false;
  if (!D->isNode())
    return true;
  if (D->productionIndex() >= G.numProductions())
    return false;
  const Production &P = G.production(D->productionIndex());
  if (P.Lhs != D->symbol())
    return false;
  size_t I = 0;
  for (const DerivPtr &C : D->children()) {
    if (C && C->isDot())
      continue;
    if (I == P.Rhs.size() || !C || C->symbol() != P.Rhs[I++] ||
        !wellFormed(G, C))
      return false;
  }
  return I == P.Rhs.size();
}

bool allWellFormed(const Grammar &G, const std::vector<DerivPtr> &Ds) {
  for (const DerivPtr &D : Ds)
    if (!D || (!D->isDot() && !wellFormed(G, D)))
      return false;
  return !Ds.empty();
}

bool containsDot(const DerivPtr &D) {
  if (D->isDot())
    return true;
  for (const DerivPtr &C : D->children())
    if (containsDot(C))
      return true;
  return false;
}

/// The only tree of \p Side besides dot markers, or null.
DerivPtr singleTree(const std::vector<DerivPtr> &Side) {
  DerivPtr Tree;
  for (const DerivPtr &D : Side) {
    if (D && D->isDot())
      continue;
    if (Tree || !D)
      return nullptr;
    Tree = D;
  }
  return Tree;
}

/// Same derivation, dot markers ignored.
bool sameDerivation(const DerivPtr &A, const DerivPtr &B) {
  if (A->isNode() != B->isNode() || A->symbol() != B->symbol())
    return false;
  if (!A->isNode())
    return true;
  if (A->productionIndex() != B->productionIndex())
    return false;
  std::vector<DerivPtr> KA, KB;
  for (const DerivPtr &C : A->children())
    if (!C->isDot())
      KA.push_back(C);
  for (const DerivPtr &C : B->children())
    if (!C->isDot())
      KB.push_back(C);
  if (KA.size() != KB.size())
    return false;
  for (size_t I = 0; I < KA.size(); ++I)
    if (!sameDerivation(KA[I], KB[I]))
      return false;
  return true;
}

/// The conflict-point claim of one side: its sentential form up to the
/// dot, followed by the conflict terminal, is a viable prefix of the start
/// symbol. The side's trees already derive prefix + suffix from the start
/// symbol, so the claim holds when the shown suffix derives a string that
/// begins with the conflict terminal: every symbol before it must be
/// nullable. This keeps the Earley inputs one symbol long however long the
/// example is.
bool conflictPrefixViable(const Grammar &G, const DerivationCounter &D,
                          const std::vector<DerivPtr> &Side, Symbol Token) {
  int Dot = -1;
  std::vector<Symbol> Y = yieldOf(Side, &Dot);
  if (Dot < 0)
    return false;
  bool AtEof = !Token.valid() || Token == G.eof();
  for (size_t I = size_t(Dot); I < Y.size(); ++I) {
    if (!AtEof && (Y[I] == Token ||
                   (G.isNonterminal(Y[I]) && D.derivesPrefix(Y[I], {Token}))))
      return true;
    if (G.isTerminal(Y[I]) || !D.derives(Y[I], {}))
      return false;
  }
  return AtEof;
}

/// The side derives from the start symbol: its trees are well-formed and
/// the sequence of their roots is a sentential form of the start symbol.
bool derivesFromStart(const Grammar &G, const DerivationCounter &D,
                      const std::vector<DerivPtr> &Side) {
  if (!allWellFormed(G, Side))
    return false;
  std::vector<Symbol> Roots;
  for (const DerivPtr &T : Side)
    if (!T->isDot())
      Roots.push_back(T->symbol());
  return D.derives(G.startSymbol(), Roots);
}

} // namespace

Expectation expectationFor(const Grammar &G, int CorpusConflicts,
                           std::optional<bool> CorpusAmbiguous) {
  Expectation E;
  E.Ambiguous = CorpusAmbiguous;
  E.Conflicts = CorpusConflicts;
  if (E.Conflicts < 0 &&
      (G.expectedShiftReduce() >= 0 || G.expectedReduceReduce() >= 0))
    E.Conflicts = std::max(G.expectedShiftReduce(), 0) +
                  std::max(G.expectedReduceReduce(), 0);
  return E;
}

bool reportFailed(const ConflictReport &R) {
  return R.Status == CounterexampleStatus::Failed ||
         R.Status == CounterexampleStatus::Cancelled;
}

std::string checkReport(const Grammar &G, const DerivationCounter &D,
                        const ConflictReport &R, const Expectation &E) {
  if (R.Failure && R.Failure->K == FailureReason::Deadline)
    return "deadline failure in " + R.Failure->Stage +
           " under a step-only budget";
  bool Unifying = R.Status == CounterexampleStatus::UnifyingFound;
  if (Unifying != (R.Example && R.Example->Unifying))
    return "status and example disagree on unifying";
  if (!R.Example)
    return reportFailed(R) ? "" : "report without a counterexample";
  const Counterexample &Ex = *R.Example;
  if (Ex.Unifying) {
    if (E.Ambiguous == false)
      return "unifying counterexample on a grammar marked unambiguous";
    // Each side is one tree rooted at the ambiguous nonterminal (a
    // conflict dot may sit beside it).
    DerivPtr T1 = singleTree(Ex.Derivs1), T2 = singleTree(Ex.Derivs2);
    if (!T1 || !T2 || !wellFormed(G, T1) || !wellFormed(G, T2) ||
        T1->symbol() != Ex.Root || T2->symbol() != Ex.Root)
      return "malformed unifying derivations";
    std::vector<Symbol> Y = Ex.yield1();
    if (Y != Ex.yield2())
      return "unifying derivations have different yields";
    if (sameDerivation(T1, T2))
      return "unifying derivations are the same tree";
    if (D.countDerivations(Ex.Root, Y) < 2)
      return "unifying example has fewer than two derivations: " +
             Ex.exampleString1(G);
    return "";
  }
  if (!derivesFromStart(G, D, Ex.Derivs1) ||
      !derivesFromStart(G, D, Ex.Derivs2))
    return "nonunifying side does not derive from the start symbol: " +
           Ex.exampleString1(G);
  if (!conflictPrefixViable(G, D, Ex.Derivs1, R.TheConflict.Token) ||
      !conflictPrefixViable(G, D, Ex.Derivs2, R.TheConflict.Token))
    return "conflict-point prefix not viable: " + Ex.exampleString1(G);
  return "";
}

std::string checkConflictCount(size_t Reported, const Expectation &E) {
  if (E.Conflicts < 0 || Reported == size_t(E.Conflicts))
    return "";
  return std::to_string(Reported) + " conflicts reported, " +
         std::to_string(E.Conflicts) + " expected";
}

std::string checkSameReport(const std::string &Incremental,
                            const std::string &Cold) {
  return Incremental == Cold ? "" : "incremental report differs from cold";
}

} // namespace perfbench
