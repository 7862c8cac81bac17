//===- support/TerminalSetPool.cpp - Hash-consed terminal sets ------------===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//

#include "support/TerminalSetPool.h"

#include "support/Budget.h"

#include <algorithm>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define LALRCEX_SETKERNEL_X86 1
#include <immintrin.h>
#else
#define LALRCEX_SETKERNEL_X86 0
#endif

namespace lalrcex {

// Alignment/UB audit: every access to the word arena is element-typed
// (uint64_t lvalues), with no reinterpret_casts punning wider types onto
// the storage. The AVX2 path below only ever touches memory through
// _mm256_loadu_si256 / _mm256_storeu_si256, the sanctioned unaligned
// intrinsics, so it is correct for any caller buffer; the pool's own
// arena is additionally 64-byte aligned (AlignedWordBuffer) so arena rows
// get aligned-speed loads and never split cache lines.
namespace setkernel {

void orIntoScalar(uint64_t *Dst, const uint64_t *Src, unsigned Words) {
  unsigned I = 0;
  for (; I + 4 <= Words; I += 4) {
    Dst[I] |= Src[I];
    Dst[I + 1] |= Src[I + 1];
    Dst[I + 2] |= Src[I + 2];
    Dst[I + 3] |= Src[I + 3];
  }
  for (; I != Words; ++I)
    Dst[I] |= Src[I];
}

#if LALRCEX_SETKERNEL_X86

namespace {
bool detectAvx2() { return __builtin_cpu_supports("avx2"); }
const bool HaveAvx2 = detectAvx2();
} // namespace

bool avx2Available() { return HaveAvx2; }

__attribute__((target("avx2"))) static void
orIntoAvx2Impl(uint64_t *Dst, const uint64_t *Src, unsigned Words) {
  unsigned I = 0;
  for (; I + 4 <= Words; I += 4) {
    __m256i VDst =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Dst + I));
    __m256i VSrc =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Src + I));
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(Dst + I),
                        _mm256_or_si256(VDst, VSrc));
  }
  for (; I != Words; ++I)
    Dst[I] |= Src[I];
}

void orIntoAvx2(uint64_t *Dst, const uint64_t *Src, unsigned Words) {
  if (HaveAvx2)
    orIntoAvx2Impl(Dst, Src, Words);
  else
    orIntoScalar(Dst, Src, Words);
}

void orInto(uint64_t *Dst, const uint64_t *Src, unsigned Words) {
  if (HaveAvx2)
    orIntoAvx2Impl(Dst, Src, Words);
  else
    orIntoScalar(Dst, Src, Words);
}

#else // !LALRCEX_SETKERNEL_X86

bool avx2Available() { return false; }

void orIntoAvx2(uint64_t *Dst, const uint64_t *Src, unsigned Words) {
  orIntoScalar(Dst, Src, Words);
}

void orInto(uint64_t *Dst, const uint64_t *Src, unsigned Words) {
  orIntoScalar(Dst, Src, Words);
}

#endif // LALRCEX_SETKERNEL_X86

} // namespace setkernel

namespace {
/// Sentinel for "no such interned set". Inline ids never set bit 30 and
/// wide ids never set bit 31, so all-ones is unused by both encodings.
constexpr TerminalSetPool::SetId InvalidId = 0xFFFFFFFFu;

/// Arena stride for a set of \p Words meaningful words: small universes
/// (<= 2 words, i.e. <= 128 terminals) keep their exact width so the
/// common case pays nothing; wider universes round up to a multiple of 4
/// so the batched kernels run without a scalar tail.
unsigned strideFor(unsigned Words) {
  return Words <= 2 ? Words : (Words + 3) & ~3u;
}
} // namespace

TerminalSetPool::TerminalSetPool(unsigned UniverseSize)
    : Universe(UniverseSize), WordsPerSet((UniverseSize + 63) / 64),
      StrideWords(strideFor(WordsPerSet)) {
  Scratch.resize(StrideWords);
  if (inlineEnabled()) {
    EmptyId = EmptyInlineId;
  } else {
    // No inline encoding: the empty set is the pool's first wide set.
    std::fill(Scratch.begin(), Scratch.end(), 0);
    EmptyId = internScratch();
  }
}

TerminalSetPool::TerminalSetPool(const TerminalSetPool *BasePool,
                                 ResourceGuard *G)
    : Universe(BasePool->Universe), WordsPerSet(BasePool->WordsPerSet),
      StrideWords(BasePool->StrideWords), Base(BasePool),
      FirstLocalId(BasePool->FirstLocalId +
                   uint32_t(BasePool->Counters.WideSets)),
      Guard(G), EmptyId(BasePool->EmptyId) {
  Scratch.resize(StrideWords);
}

TerminalSetPool TerminalSetPool::overlay(const TerminalSetPool &Base,
                                         ResourceGuard *Guard) {
  assert(Base.frozen() && "overlay base must be frozen first");
  return TerminalSetPool(&Base, Guard);
}

const uint64_t *TerminalSetPool::wordsOf(SetId A) const {
  assert(!isInline(A) && "inline sets have no arena words");
  const TerminalSetPool *P = this;
  while (A < P->FirstLocalId) {
    P = P->Base;
    assert(P && "wide id below the root pool");
  }
  return &P->Arena[size_t(A - P->FirstLocalId) * StrideWords];
}

void TerminalSetPool::loadScratch(SetId A) const {
  if (isInline(A)) {
    std::fill(Scratch.begin(), Scratch.end(), 0);
    unsigned Lo = A & SlotMask, Hi = (A >> SlotBits) & SlotMask;
    if (Lo != SlotEmpty)
      Scratch[Lo / 64] |= uint64_t(1) << (Lo % 64);
    if (Hi != SlotEmpty)
      Scratch[Hi / 64] |= uint64_t(1) << (Hi % 64);
    return;
  }
  const uint64_t *W = wordsOf(A);
  // Copy the full stride: arena padding words are zero, so this keeps the
  // scratch-padding-is-zero invariant that makes stride-wide compares and
  // hashes exact.
  std::copy(W, W + StrideWords, Scratch.begin());
}

uint64_t TerminalSetPool::hashWords(const uint64_t *W) const {
  uint64_t H = 0x9e3779b97f4a7c15ULL;
  for (unsigned I = 0; I != WordsPerSet; ++I)
    H = (H ^ W[I]) * 0x100000001b3ULL;
  return H;
}

bool TerminalSetPool::equalsScratch(SetId A) const {
  const uint64_t *W = wordsOf(A);
  return std::equal(W, W + WordsPerSet, Scratch.begin());
}

TerminalSetPool::SetId TerminalSetPool::findScratchLocal(uint64_t Hash) const {
  auto [It, End] = Intern.equal_range(Hash);
  for (; It != End; ++It)
    if (equalsScratch(It->second))
      return It->second;
  return InvalidId;
}

TerminalSetPool::SetId TerminalSetPool::findScratch(uint64_t Hash) const {
  // Probe the frozen base chain first so an overlay never re-interns a set
  // the base already owns (canonical ids are global across the chain).
  for (const TerminalSetPool *P = this; P; P = P->Base) {
    SetId Found = P->findScratchLocal(Hash);
    if (Found != InvalidId)
      return Found;
  }
  return InvalidId;
}

void TerminalSetPool::chargeGrowth(size_t Bytes) {
  // A tripped memory budget is observed by the search's own guard polls;
  // the pool itself keeps functioning so degradation stays graceful.
  if (Guard)
    Guard->chargeBytes(Bytes);
}

TerminalSetPool::SetId TerminalSetPool::internScratch() {
  if (inlineEnabled()) {
    // Demote to the inline encoding when at most two bits are set.
    unsigned Elems[3];
    unsigned N = 0;
    for (unsigned I = 0; I != WordsPerSet && N <= 2; ++I) {
      uint64_t Word = Scratch[I];
      while (Word) {
        if (N == 3)
          break;
        Elems[N >= 2 ? 2 : N] = unsigned(I * 64 + __builtin_ctzll(Word));
        ++N;
        Word &= Word - 1;
      }
    }
    if (N == 0)
      return EmptyInlineId;
    if (N == 1)
      return makeInline(Elems[0], SlotEmpty);
    if (N == 2)
      return makeInline(Elems[0], Elems[1]);
  }
  ++Counters.InternProbes;
  uint64_t Hash = hashWords(Scratch.data());
  SetId Found = findScratch(Hash);
  if (Found != InvalidId)
    return Found;

  assert(!Frozen && "interning into a frozen pool");
  SetId Id = FirstLocalId + uint32_t(Counters.WideSets);
  Arena.append(Scratch.data(), StrideWords);
  Intern.emplace(Hash, Id);
  ++Counters.WideSets;
  size_t Grown = StrideWords * sizeof(uint64_t) +
                 sizeof(std::pair<uint64_t, SetId>) + 2 * sizeof(void *);
  Counters.ArenaBytes += StrideWords * sizeof(uint64_t);
  chargeGrowth(Grown);
  return Id;
}

TerminalSetPool::SetId TerminalSetPool::singleton(unsigned Element) {
  assert(Element < Universe && "element outside universe");
  if (inlineEnabled())
    return makeInline(Element, SlotEmpty);
  std::fill(Scratch.begin(), Scratch.end(), 0);
  Scratch[Element / 64] |= uint64_t(1) << (Element % 64);
  return internScratch();
}

TerminalSetPool::SetId TerminalSetPool::intern(const IndexSet &S) {
  assert(S.universeSize() == Universe && "universe mismatch");
  assert(S.wordCount() == WordsPerSet && "word count mismatch");
  std::copy(S.words(), S.words() + WordsPerSet, Scratch.begin());
  // Defensive: external words cover only WordsPerSet; re-zero the stride
  // padding rather than relying on the invariant alone.
  std::fill(Scratch.begin() + WordsPerSet, Scratch.end(), 0);
  return internScratch();
}

bool TerminalSetPool::contains(SetId A, unsigned Element) const {
  assert(Element < Universe && "element outside universe");
  if (isInline(A))
    return (A & SlotMask) == Element || ((A >> SlotBits) & SlotMask) == Element;
  return (wordsOf(A)[Element / 64] >> (Element % 64)) & 1;
}

unsigned TerminalSetPool::count(SetId A) const {
  if (isInline(A)) {
    unsigned N = 0;
    if ((A & SlotMask) != SlotEmpty)
      ++N;
    if (((A >> SlotBits) & SlotMask) != SlotEmpty)
      ++N;
    return N;
  }
  const uint64_t *W = wordsOf(A);
  unsigned N = 0;
  for (unsigned I = 0; I != WordsPerSet; ++I)
    N += __builtin_popcountll(W[I]);
  return N;
}

TerminalSetPool::SetId TerminalSetPool::unionSets(SetId A, SetId B) {
  if (A == B || B == EmptyId)
    return A;
  if (A == EmptyId)
    return B;

  if (isInline(A) && isInline(B)) {
    // Merge up to four inline elements without touching the arena.
    unsigned Merged[4] = {0, 0, 0, 0};
    unsigned N = 0;
    auto Add = [&](unsigned E) {
      if (E == SlotEmpty)
        return;
      for (unsigned I = 0; I != N; ++I)
        if (Merged[I] == E)
          return;
      Merged[N++] = E;
    };
    Add(A & SlotMask);
    Add((A >> SlotBits) & SlotMask);
    Add(B & SlotMask);
    Add((B >> SlotBits) & SlotMask);
    if (N <= 2) {
      std::sort(Merged, Merged + N);
      return N == 1 ? makeInline(Merged[0], SlotEmpty)
                    : makeInline(Merged[0], Merged[1]);
    }
  } else if (isInline(B)) {
    // Cheap absorption test: two bit probes against the wide side.
    unsigned Lo = B & SlotMask, Hi = (B >> SlotBits) & SlotMask;
    if ((Lo == SlotEmpty || contains(A, Lo)) &&
        (Hi == SlotEmpty || contains(A, Hi)))
      return A;
  } else if (isInline(A)) {
    unsigned Lo = A & SlotMask, Hi = (A >> SlotBits) & SlotMask;
    if ((Lo == SlotEmpty || contains(B, Lo)) &&
        (Hi == SlotEmpty || contains(B, Hi)))
      return B;
  }

  ++Counters.UnionCalls;
  uint64_t Key = (uint64_t(std::min(A, B)) << 32) | std::max(A, B);
  for (const TerminalSetPool *P = this; P; P = P->Base) {
    auto It = P->UnionCache.find(Key);
    if (It != P->UnionCache.end()) {
      ++Counters.UnionCacheHits;
      return It->second;
    }
  }

  loadScratch(A);
  if (isInline(B)) {
    unsigned Lo = B & SlotMask, Hi = (B >> SlotBits) & SlotMask;
    if (Lo != SlotEmpty)
      Scratch[Lo / 64] |= uint64_t(1) << (Lo % 64);
    if (Hi != SlotEmpty)
      Scratch[Hi / 64] |= uint64_t(1) << (Hi % 64);
  } else {
    const uint64_t *BW = wordsOf(B);
    setkernel::orInto(Scratch.data(), BW, StrideWords);
  }
  SetId R = internScratch();
  assert(!Frozen && "caching into a frozen pool");
  UnionCache.emplace(Key, R);
  chargeGrowth(sizeof(std::pair<uint64_t, SetId>) + 2 * sizeof(void *));
  return R;
}

TerminalSetPool::SetId TerminalSetPool::withElement(SetId A,
                                                    unsigned Element) {
  assert(Element < Universe && "element outside universe");
  if (isInline(A)) {
    unsigned Lo = A & SlotMask, Hi = (A >> SlotBits) & SlotMask;
    if (Lo == Element || Hi == Element)
      return A;
    if (Lo == SlotEmpty)
      return makeInline(Element, SlotEmpty);
    if (Hi == SlotEmpty)
      return Lo < Element ? makeInline(Lo, Element) : makeInline(Element, Lo);
    // Two occupied slots plus a third element: promote to a wide set.
  } else if (contains(A, Element)) {
    return A;
  }

  ++Counters.WithElementCalls;
  uint64_t Key = (uint64_t(A) << 32) | Element;
  for (const TerminalSetPool *P = this; P; P = P->Base) {
    auto It = P->WithElementCache.find(Key);
    if (It != P->WithElementCache.end()) {
      ++Counters.WithElementCacheHits;
      return It->second;
    }
  }

  loadScratch(A);
  Scratch[Element / 64] |= uint64_t(1) << (Element % 64);
  SetId R = internScratch();
  assert(!Frozen && "caching into a frozen pool");
  WithElementCache.emplace(Key, R);
  chargeGrowth(sizeof(std::pair<uint64_t, SetId>) + 2 * sizeof(void *));
  return R;
}

IndexSet TerminalSetPool::materialize(SetId A) const {
  return materialize(A, Universe);
}

IndexSet TerminalSetPool::materialize(SetId A,
                                      unsigned UniverseOverride) const {
  assert(UniverseOverride >= Universe && "cannot shrink the universe");
  IndexSet S(UniverseOverride);
  forEach(A, [&](unsigned E) { S.insert(E); });
  return S;
}

} // namespace lalrcex
