#include "relational/table.h"

#include <algorithm>

namespace nimble {
namespace relational {

namespace {
Status DuplicateKey(const Value& key, const std::string& table) {
  return Status::AlreadyExists("duplicate primary key " + key.ToString() +
                               " in table '" + table + "'");
}
}  // namespace

Status Table::Insert(Row row) {
  schema_.CoerceRow(&row);
  NIMBLE_RETURN_IF_ERROR(schema_.ValidateRow(row));
  if (std::optional<size_t> pk = schema_.primary_key()) {
    if (KeyHeldOutside(row[*pk], {})) {
      return DuplicateKey(row[*pk], schema_.name());
    }
  }
  size_t row_id = num_rows_;
  for (auto& index : indexes_) {
    index->Insert(row[index->column()], row_id);
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].push_back(std::move(row[c]));
  }
  ++num_rows_;
  tombstones_.push_back(false);
  ++live_rows_;
  ++version_;
  return Status::OK();
}

void Table::CopyRowInto(size_t row_id, Row* out) const {
  out->resize(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    (*out)[c] = columns_[c][row_id];
  }
}

bool Table::KeyHeldOutside(const Value& key,
                           const std::vector<size_t>& replaced) const {
  const size_t pk = *schema_.primary_key();
  auto held_outside = [&](size_t id) {
    return !std::binary_search(replaced.begin(), replaced.end(), id);
  };
  bool clash = false;
  if (const OrderedIndex* pk_index = FindIndexOn(pk)) {
    for (size_t id : pk_index->Lookup(key)) clash = clash || held_outside(id);
  } else {
    const std::vector<Value>& pk_column = columns_[pk];
    for (size_t i = 0; i < num_rows_ && !clash; ++i) {
      clash = !tombstones_[i] && pk_column[i] == key && held_outside(i);
    }
  }
  return clash;
}

Status Table::Update(const std::vector<size_t>& row_ids,
                     std::vector<Row> rows) {
  assert(row_ids.size() == rows.size());
  for (Row& row : rows) {
    schema_.CoerceRow(&row);
    NIMBLE_RETURN_IF_ERROR(schema_.ValidateRow(row));
  }
  if (std::optional<size_t> pk = schema_.primary_key()) {
    // Keys left as they were cannot clash with rows outside the update; a
    // changed key must be free outside it, and all new keys distinct.
    std::vector<size_t> replaced = row_ids;
    std::sort(replaced.begin(), replaced.end());
    bool key_changed = false;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (rows[i][*pk] == at(row_ids[i], *pk)) continue;
      key_changed = true;
      if (KeyHeldOutside(rows[i][*pk], replaced)) {
        return DuplicateKey(rows[i][*pk], schema_.name());
      }
    }
    if (key_changed) {
      std::vector<const Value*> keys;
      for (const Row& row : rows) keys.push_back(&row[*pk]);
      std::sort(keys.begin(), keys.end(),
                [](const Value* a, const Value* b) { return *a < *b; });
      for (size_t i = 1; i < keys.size(); ++i) {
        if (*keys[i - 1] == *keys[i]) {
          return DuplicateKey(*keys[i], schema_.name());
        }
      }
    }
  }
  for (size_t i = 0; i < row_ids.size(); ++i) {
    const size_t id = row_ids[i];
    for (auto& index : indexes_) {
      const Value& old_key = columns_[index->column()][id];
      const Value& new_key = rows[i][index->column()];
      if (old_key == new_key) continue;
      index->Erase(old_key, id);
      index->Insert(new_key, id);
    }
    for (size_t c = 0; c < columns_.size(); ++c) {
      columns_[c][id] = std::move(rows[i][c]);
    }
  }
  if (!row_ids.empty()) ++version_;
  return Status::OK();
}

void Table::Delete(const std::vector<size_t>& row_ids) {
  for (size_t id : row_ids) {
    assert(IsLive(id));
    for (auto& index : indexes_) {
      index->Erase(columns_[index->column()][id], id);
    }
    tombstones_[id] = true;
  }
  tombstone_count_ += row_ids.size();
  live_rows_ -= row_ids.size();
  if (!row_ids.empty()) ++version_;
}

Status Table::CreateIndex(const std::string& index_name,
                          const std::string& column) {
  std::optional<size_t> col = schema_.ColumnIndex(column);
  if (!col.has_value()) {
    return Status::NotFound("no column '" + column + "' in table '" +
                            schema_.name() + "'");
  }
  for (const auto& index : indexes_) {
    if (index->name() == index_name) {
      return Status::AlreadyExists("index '" + index_name + "' exists");
    }
  }
  auto index = std::make_unique<OrderedIndex>(index_name, *col);
  const std::vector<Value>& values = columns_[*col];
  ForEachLiveRow([&](size_t i) { index->Insert(values[i], i); });
  indexes_.push_back(std::move(index));
  return Status::OK();
}

const OrderedIndex* Table::FindIndexOn(const std::string& column) const {
  std::optional<size_t> col = schema_.ColumnIndex(column);
  if (!col.has_value()) return nullptr;
  return FindIndexOn(*col);
}

const OrderedIndex* Table::FindIndexOn(size_t column) const {
  for (const auto& index : indexes_) {
    if (index->column() == column) return index.get();
  }
  return nullptr;
}

}  // namespace relational
}  // namespace nimble
