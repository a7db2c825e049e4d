#include <algorithm>

#include "common/logging.h"
#include "engine/engine.h"

namespace vedb::engine {

Table::Table(DBEngine* engine, std::string name, SpaceId space, Schema schema)
    : engine_(engine),
      name_(std::move(name)),
      space_(space),
      schema_(std::move(schema)) {
  VEDB_CHECK(!schema_.pk.empty(), "table %s needs a primary key",
             name_.c_str());
}

void Table::CreateIndex(const std::string& index_name,
                        std::vector<int> columns) {
  vedb::MutexLock lk(&mu_);
  auto [it, created] = sec_indexes_.try_emplace(index_name);
  if (!created) {
    // Re-declaring the catalog (a second TpccDatabase on a loaded engine)
    // keeps the index and its entries.
    VEDB_CHECK(it->second.columns == columns,
               "table %s: index %s re-declared with different columns",
               name_.c_str(), index_name.c_str());
    return;
  }
  it->second.columns = std::move(columns);
  // Backfill from existing committed rows is the caller's job (CreateIndex
  // before load, or RebuildIndexes after recovery).
}

std::string Table::SecEntryKey(const std::vector<int>& cols, const Row& row,
                               const std::string& pk) const {
  std::string key;
  for (int c : cols) row[c].EncodeSortable(&key);
  key.append(pk);
  return key;
}

Rid Table::ReservePlacement(size_t row_bytes) {
  vedb::MutexLock lk(&mu_);
  // Conservative reservation: slot entry plus slack for later in-place row
  // growth (varint counters widen as values grow).
  const uint32_t need =
      static_cast<uint32_t>(row_bytes + Page::kSlotEntrySize + 16);
  if (!pages_.empty()) {
    PageMeta& last = pages_.back();
    if (last.free_bytes >= need && last.next_slot < UINT16_MAX) {
      last.free_bytes -= need;
      return Rid{last.page_no, last.next_slot++};
    }
  }
  PageMeta meta;
  meta.page_no = static_cast<PageNo>(pages_.size());
  meta.free_bytes =
      static_cast<uint32_t>(Page::kPageSize - Page::kHeaderSize) - need;
  meta.next_slot = 1;
  pages_.push_back(meta);
  return Rid{meta.page_no, 0};
}

bool Table::LookupRid(const std::string& pk, Rid* rid) const {
  vedb::MutexLock lk(&mu_);
  return pk_index_.Find(pk, rid);
}

Status Table::EnsureEntry(Txn* txn, std::string&& pk,
                          Txn::OverlayEntry** entry_out) {
  auto it = txn->overlay_.find(std::pair<Table*, std::string_view>(this, pk));
  if (it != txn->overlay_.end()) {
    *entry_out = &it->second;
    return Status::OK();
  }
  VEDB_RETURN_IF_ERROR(engine_->locks_.Lock(txn->id(), space_, pk));
  Txn::OverlayEntry entry;
  Rid rid;
  bool found;
  bool indexed;
  {
    vedb::MutexLock lk(&mu_);
    found = pk_index_.Find(pk, &rid);
    indexed = !sec_indexes_.empty();
  }
  if (found) {
    VEDB_ASSIGN_OR_RETURN(Row row, engine_->ReadRowAt(space_, rid));
    entry.has_committed = true;
    entry.committed_rid = rid;
    if (indexed) entry.committed_row = row;
    entry.current = std::move(row);
  }
  auto ins =
      txn->overlay_.emplace(std::pair(this, std::move(pk)), std::move(entry))
          .first;
  txn->touch_order_.push_back(&*ins);
  *entry_out = &ins->second;
  return Status::OK();
}

Status Table::Insert(Txn* txn, const Row& row) {
  if (row.size() != schema_.columns.size()) {
    return Status::InvalidArgument("row arity mismatch for " + name_);
  }
  engine_->node()->cpu()->Access(0, engine_->options().row_op_cpu);
  Txn::OverlayEntry* entry = nullptr;
  VEDB_RETURN_IF_ERROR(EnsureEntry(txn, PkOf(schema_, row), &entry));
  if (entry->current.has_value()) {
    return Status::AlreadyExists("duplicate PK in " + name_);
  }
  entry->current = row;
  entry->modified = true;
  return Status::OK();
}

Status Table::Update(Txn* txn, const std::vector<Value>& pk_values,
                     const std::function<void(Row*)>& mutator) {
  engine_->node()->cpu()->Access(0, engine_->options().row_op_cpu);
  Txn::OverlayEntry* entry = nullptr;
  VEDB_RETURN_IF_ERROR(EnsureEntry(txn, MakeKey(pk_values), &entry));
  if (!entry->current.has_value()) {
    return Status::NotFound("no row for PK in " + name_);
  }
  mutator(&*entry->current);
  entry->modified = true;
  return Status::OK();
}

Status Table::Delete(Txn* txn, const std::vector<Value>& pk_values) {
  engine_->node()->cpu()->Access(0, engine_->options().row_op_cpu);
  Txn::OverlayEntry* entry = nullptr;
  VEDB_RETURN_IF_ERROR(EnsureEntry(txn, MakeKey(pk_values), &entry));
  if (!entry->current.has_value()) {
    return Status::NotFound("no row for PK in " + name_);
  }
  entry->current.reset();
  entry->modified = true;
  return Status::OK();
}

Result<Row> Table::Get(Txn* txn, const std::vector<Value>& pk_values) {
  engine_->node()->cpu()->Access(0, engine_->options().row_op_cpu);
  const std::string pk = MakeKey(pk_values);
  if (txn != nullptr) {
    auto it =
        txn->overlay_.find(std::pair<Table*, std::string_view>(this, pk));
    if (it != txn->overlay_.end()) {
      if (!it->second.current.has_value()) {
        return Status::NotFound("row deleted in this transaction");
      }
      return *it->second.current;
    }
  }
  Rid rid;
  if (!LookupRid(pk, &rid)) return Status::NotFound("no row for PK");
  return engine_->ReadRowAt(space_, rid);
}

Status Table::ScanPkRange(const std::string& lo, const std::string& hi,
                          const std::function<bool(const Row&)>& fn) {
  // Snapshot the qualifying rids, then read outside the table lock.
  std::vector<Rid> rids;
  {
    vedb::MutexLock lk(&mu_);
    pk_index_.ScanFrom(lo, [&](std::string_view key, Rid rid) {
      if (!hi.empty() && key >= hi) return false;
      rids.push_back(rid);
      return true;
    });
  }
  for (const Rid& rid : rids) {
    auto row = engine_->ReadRowAt(space_, rid);
    if (!row.ok()) {
      if (row.status().IsNotFound()) continue;  // deleted since snapshot
      return row.status();
    }
    if (!fn(*row)) break;
  }
  return Status::OK();
}

Status Table::ScanAll(const std::function<bool(const Row&)>& fn) {
  return ScanPkRange("", "", fn);
}

Result<std::vector<Row>> Table::IndexLookup(const std::string& index_name,
                                            const std::vector<Value>& values) {
  engine_->node()->cpu()->Access(0, engine_->options().row_op_cpu);
  std::vector<std::string> pks;
  {
    vedb::MutexLock lk(&mu_);
    auto idx = sec_indexes_.find(index_name);
    if (idx == sec_indexes_.end()) {
      return Status::NotFound("no index " + index_name + " on " + name_);
    }
    // A value's sortable encoding is self-delimiting, so with every index
    // column given, the entries that start with `key` are exactly its
    // rows, each entry's key ending in the row's PK.
    if (values.size() == idx->second.columns.size()) {
      const std::string key = MakeKey(values);
      idx->second.entries.ScanFrom(key, [&](std::string_view entry, Rid) {
        if (entry.substr(0, key.size()) != key) return false;
        pks.emplace_back(entry.substr(key.size()));
        return true;
      });
    }
  }
  std::vector<Row> rows;
  for (const std::string& pk : pks) {
    Rid rid;
    if (!LookupRid(pk, &rid)) continue;
    auto row = engine_->ReadRowAt(space_, rid);
    if (row.ok()) rows.push_back(std::move(*row));
  }
  return rows;
}

void Table::ApplyIndexInsert(const std::string& pk, const Rid& rid,
                             const Row& row) {
  vedb::MutexLock lk(&mu_);
  pk_index_.Put(pk, rid);
  row_count_++;
  for (auto& [name, idx] : sec_indexes_) {
    idx.entries.Put(SecEntryKey(idx.columns, row, pk), Rid{});
  }
}

void Table::ApplyIndexDelete(const std::string& pk, const Row& old_row) {
  vedb::MutexLock lk(&mu_);
  pk_index_.Erase(pk);
  if (row_count_ > 0) row_count_--;
  for (auto& [name, idx] : sec_indexes_) {
    idx.entries.Erase(SecEntryKey(idx.columns, old_row, pk));
  }
}

void Table::ApplyIndexUpdate(const std::string& pk, const Row& old_row,
                             const Row& new_row) {
  vedb::MutexLock lk(&mu_);
  for (auto& [name, idx] : sec_indexes_) {
    const std::string old_key = SecEntryKey(idx.columns, old_row, pk);
    const std::string new_key = SecEntryKey(idx.columns, new_row, pk);
    if (old_key == new_key) continue;
    idx.entries.Erase(old_key);
    idx.entries.Put(new_key, Rid{});
  }
}

Status Table::BulkLoad(const std::vector<Row>& rows) {
  // Build pages locally and install them into PageStore directly (physical
  // import). Runs before any transactional traffic on the table.
  std::string image;
  Page::Format(&image);
  Page page(&image);
  PageNo page_no;
  uint16_t slot;
  {
    vedb::MutexLock lk(&mu_);
    page_no = static_cast<PageNo>(pages_.size());
  }
  slot = 0;

  auto flush_page = [&]() -> Status {
    if (slot == 0) return Status::OK();
    page.set_lsn(0);
    VEDB_RETURN_IF_ERROR(engine_->pagestore()->InstallPageDirect(
        PackPageKey(space_, page_no), 0, Slice(image)));
    {
      vedb::MutexLock lk(&mu_);
      PageMeta meta;
      meta.page_no = page_no;
      meta.free_bytes = page.FreeBytes();
      meta.next_slot = slot;
      pages_.push_back(meta);
    }
    Page::Format(&image);
    page_no++;
    slot = 0;
    return Status::OK();
  };

  for (const Row& row : rows) {
    if (row.size() != schema_.columns.size()) {
      return Status::InvalidArgument("row arity mismatch in bulk load");
    }
    std::string bytes;
    EncodeRow(row, &bytes);
    // Keep a fill-factor reserve (~1/16th of the page) so later updates
    // that grow rows slightly never overflow a bulk-loaded page.
    if (page.FreeBytes() < bytes.size() + Page::kSlotEntrySize +
                               Page::kPageSize / 16 ||
        !page.HasRoomFor(static_cast<uint16_t>(bytes.size()), true)) {
      VEDB_RETURN_IF_ERROR(flush_page());
    }
    VEDB_RETURN_IF_ERROR(page.PutRow(slot, Slice(bytes)));
    const std::string pk = PkOf(schema_, row);
    {
      vedb::MutexLock lk(&mu_);
      pk_index_.Put(pk, Rid{page_no, slot});
      row_count_++;
      for (auto& [name, idx] : sec_indexes_) {
        idx.entries.Put(SecEntryKey(idx.columns, row, pk), Rid{});
      }
    }
    slot++;
  }
  return flush_page();
}

Status Table::RebuildIndexes() {
  // Page reads block on the clock, and no lock is held across a clock
  // wait: build the indexes unlocked, then publish them under the lock.
  OrderedIndex pk_index;
  std::map<std::string, SecIndex> sec_indexes;
  {
    vedb::MutexLock lk(&mu_);
    for (const auto& [name, idx] : sec_indexes_) {
      sec_indexes[name].columns = idx.columns;
    }
  }
  std::vector<PageMeta> pages;
  uint64_t row_count = 0;

  // Walk pages from storage until the first page that never existed.
  for (PageNo page_no = 0;; ++page_no) {
    std::string image;
    uint64_t lsn = 0;
    Status s = engine_->pagestore()->ReadPage(
        engine_->node(), PackPageKey(space_, page_no), &image, &lsn);
    if (s.IsNotFound()) break;
    VEDB_RETURN_IF_ERROR(s);
    Page page(&image);
    PageMeta meta;
    meta.page_no = page_no;
    meta.free_bytes = page.FreeBytes();
    meta.next_slot = page.slot_count();
    for (uint16_t slot = 0; slot < page.slot_count(); ++slot) {
      Slice row_bytes;
      if (!page.GetRow(slot, &row_bytes).ok()) continue;
      Row row;
      if (!DecodeRow(row_bytes, &row)) {
        return Status::Corruption("bad row during index rebuild");
      }
      const std::string pk = PkOf(schema_, row);
      pk_index.Put(pk, Rid{page_no, slot});
      row_count++;
      for (auto& [name, idx] : sec_indexes) {
        idx.entries.Put(SecEntryKey(idx.columns, row, pk), Rid{});
      }
    }
    pages.push_back(meta);
  }
  vedb::MutexLock lk(&mu_);
  pk_index_ = std::move(pk_index);
  sec_indexes_ = std::move(sec_indexes);
  pages_ = std::move(pages);
  row_count_ = row_count;
  return Status::OK();
}

std::vector<PageNo> Table::PageList() const {
  vedb::MutexLock lk(&mu_);
  std::vector<PageNo> out;
  out.reserve(pages_.size());
  for (const PageMeta& meta : pages_) out.push_back(meta.page_no);
  return out;
}

uint64_t Table::approximate_row_count() const {
  vedb::MutexLock lk(&mu_);
  return row_count_;
}

}  // namespace vedb::engine
