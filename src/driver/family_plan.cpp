#include "driver/family_plan.h"

#include "driver/options.h"
#include "support/fingerprint.h"

namespace emm {

ProgramBlock familyCanonicalBlock(const ProgramBlock& block) {
  ProgramBlock canon = block;
  for (ArrayDecl& a : canon.arrays)
    for (i64& e : a.extents) e = 0;  // rank survives, concrete sizes do not
  return canon;
}

CompileOptions familyCanonicalOptions(const CompileOptions& options) {
  CompileOptions canon = options;
  canon.paramValues.clear();
  // Codegen-only knobs never reach the family products (dependences,
  // transform, tile plan); note that a backend's SEMANTIC effect —
  // cell forcing stageEverything — is applied by effectiveOptions()
  // before any hashing, so it still separates families.
  canon.backendName.clear();
  canon.kernelName.clear();
  canon.elementType.clear();
  canon.numBoundParams = -1;
  return canon;
}

SearchMemo& SearchMemo::operator=(const SearchMemo&) noexcept {
  // The plan assigned into has new products: what it certified is stale.
  delete[] table_.exchange(nullptr, std::memory_order_acq_rel);
  return *this;
}

SearchMemo::~SearchMemo() { delete[] table_.load(std::memory_order_acquire); }

size_t SearchMemo::slotOf(const IntVec& paramValues) {
  // splitmix64 steps: a --size sweep differs in low bits only, and the
  // set index needs every bit of every size to move it.
  u64 h = 0x9e3779b97f4a7c15ULL;
  for (i64 v : paramValues) {
    h ^= static_cast<u64>(v);
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 29;
  }
  return static_cast<size_t>(h % kSearchMemoSlots);
}

std::shared_ptr<const SearchMemo::Entry> SearchMemo::find(const TileSearchOptions& options,
                                                          bool exhaustive) const {
  Set* table = table_.load(std::memory_order_acquire);
  if (table == nullptr) return nullptr;
  for (auto& way : table[slotOf(options.paramValues)].ways) {
    std::shared_ptr<const Entry> e = way.load(std::memory_order_acquire);
    if (e != nullptr && e->exhaustive == exhaustive && e->options == options) return e;
  }
  return nullptr;
}

void SearchMemo::store(std::shared_ptr<const Entry> entry) const {
  Set* table = table_.load(std::memory_order_acquire);
  if (table == nullptr) {
    // First store: allocate the table; a racing first store that loses
    // the exchange frees its own and uses the winner's.
    Set* fresh = new Set[kSearchMemoSlots];
    if (table_.compare_exchange_strong(table, fresh, std::memory_order_acq_rel))
      table = fresh;
    else
      delete[] fresh;
  }
  Set& set = table[slotOf(entry->options.paramValues)];
  // A racing bind of the same request stored the same search already.
  if (find(entry->options, entry->exhaustive) != nullptr) return;
  for (auto& way : set.ways) {
    std::shared_ptr<const Entry> empty;
    if (way.compare_exchange_strong(empty, entry, std::memory_order_acq_rel)) return;
  }
  const unsigned victim = set.next.fetch_add(1) % kSearchMemoWays;
  set.ways[victim].store(std::move(entry), std::memory_order_release);
}

u64 hashProgramBlockFamily(const ProgramBlock& block) {
  return hashProgramBlock(familyCanonicalBlock(block));
}

u64 hashCompileOptionsFamily(const CompileOptions& options) {
  return hashCompileOptions(familyCanonicalOptions(options));
}

}  // namespace emm
