#include "util/diagram_store.h"

#include <algorithm>

namespace ctsdd {

void DiagramStoreBase::AttachBudget(WorkBudget* budget) {
  CTSDD_CHECK(!in_region_) << "AttachBudget inside a parallel region";
  budget_ = budget;
  lease_chunk_ = 0;
  for (Cursor& cursor : cursors_) cursor.lease = 0;
  if (budget != nullptr) {
    // Lease granularity: fine enough that overshoot stays within the
    // acceptance bound (<= budget/16), coarse enough that the shared
    // atomic is off the per-node path.
    const uint64_t b = budget->node_budget();
    lease_chunk_ = static_cast<uint32_t>(
        b == 0 ? 256
               : std::min<uint64_t>(256, std::max<uint64_t>(1, b / 16)));
  }
}

void DiagramStoreBase::SetMemAccount(MemAccount* account) {
  CTSDD_CHECK(!in_region_) << "AttachMemAccount inside a parallel region";
  mem_account_ = account;
  mem_governor_ = account != nullptr ? account->governor() : nullptr;
  unique_.SetMemAccount(account);
}

void DiagramStoreBase::BeginRegion(size_t worker_slots) {
  CTSDD_CHECK(!in_region_) << "parallel regions do not nest";
  if (cursors_.size() < 1 + worker_slots) cursors_.resize(1 + worker_slots);
  in_region_ = true;
}

void DiagramStoreBase::ReleaseRootRef(NodeId id) {
  if (id <= 1) return;
  CTSDD_CHECK(static_cast<size_t>(id) < root_refs_.size() &&
              root_refs_[id] > 0)
      << "ReleaseRootRef without a matching AddRootRef";
  --root_refs_[id];
}

bool DiagramStoreBase::TakeRecycled(Cursor& cursor) {
  SpinLockGuard guard(free_ids_lock_);
  const size_t take = std::min(kAllocBlock, free_ids_.size());
  if (take == 0) return false;
  cursor.recycled.assign(free_ids_.end() - take, free_ids_.end());
  free_ids_.resize(free_ids_.size() - take);
  return true;
}

bool DiagramStoreBase::RefillLease(Cursor& cursor) {
  if (!AdmitMemGrowth()) return false;
  cursor.lease = static_cast<uint32_t>(budget_->AcquireLease(lease_chunk_));
  return cursor.lease > 0;
}

bool DiagramStoreBase::AdmitMemGrowth() {
  if (mem_governor_ == nullptr || !mem_governor_->enabled()) return true;
  // Worst-case accounted growth before the next refill: the unique table
  // may double (possibly twice while small), each memo shard may double
  // or lazily allocate, and the stores and arenas may open fresh chunks.
  // Charging is deny-before-allocate at this seam only, so the margin must
  // cover everything mandatory-charged in between. Memo bytes come from
  // the account's atomic per-layer counter, not a walk of the memos:
  // workers reach this seam while other stripes grow.
  const uint64_t burst =
      2 * unique_.MemoryBytes() +
      static_cast<uint64_t>(mem_account_->bytes(MemLayer::kMemo)) +
      kMemBurstSlack;
  if (mem_governor_->AdmitProjected(burst)) return true;
  budget_->MarkMemoryPressure();
  budget_->Cancel(StatusCode::kResourceExhausted);
  return false;
}

}  // namespace ctsdd
