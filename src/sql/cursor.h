#ifndef HERMES_SQL_CURSOR_H_
#define HERMES_SQL_CURSOR_H_

#include <functional>
#include <utility>
#include <vector>

#include "common/statusor.h"
#include "sql/value.h"

namespace hermes::sql {

/// \brief A pull-based row stream — the session's counterpart of a
/// PostgreSQL cursor.
///
/// `Session::ExecuteCursor` returns one of these for every statement;
/// `Session::Execute` is just a cursor drained into a `Table`. Statements
/// with large outputs (`RANGE`, `S2T_MEMBERS`) produce rows incrementally
/// in `Next`, so a caller consuming the first k rows never materializes
/// the rest.
///
/// Lifetime: a cursor must not outlive its session. It owns the MOD
/// snapshot its statement read, so later DDL or ingest on that MOD
/// (`DROP MOD`, `INSERT INTO`, `LOAD MOD`) changes none of its rows.
class RowCursor {
 public:
  explicit RowCursor(std::vector<Column> columns)
      : columns_(std::move(columns)) {}
  virtual ~RowCursor() = default;

  RowCursor(const RowCursor&) = delete;
  RowCursor& operator=(const RowCursor&) = delete;

  const std::vector<Column>& columns() const { return columns_; }

  /// Advances one row. Returns true with `*row` replaced by the next row,
  /// false (leaving `*row` untouched) once exhausted, or an error status.
  virtual StatusOr<bool> Next(std::vector<Value>* row) = 0;

  /// Drains the remaining rows into a `Table` (columns + rows consumed so
  /// far are *not* rewound; call on a fresh cursor for the full result).
  StatusOr<Table> ToTable();

 protected:
  std::vector<Column> columns_;
};

/// \brief Cursor over an already-materialized `Table` (DDL acks, STATS,
/// cluster summaries — everything small enough to build eagerly).
class TableCursor : public RowCursor {
 public:
  explicit TableCursor(Table table)
      : RowCursor(std::move(table.columns)), rows_(std::move(table.rows)) {}

  StatusOr<bool> Next(std::vector<Value>* row) override {
    if (next_ >= rows_.size()) return false;
    *row = std::move(rows_[next_++]);
    return true;
  }

 private:
  std::vector<std::vector<Value>> rows_;
  size_t next_ = 0;
};

/// \brief Cursor driven by a generator callback: the executor captures
/// whatever state the statement needs (store pointer, clustering result)
/// and produces rows on demand. The generator has `Next` semantics:
/// fill `*row` and return true, or return false when exhausted.
class GeneratorCursor : public RowCursor {
 public:
  using Generator = std::function<StatusOr<bool>(std::vector<Value>*)>;

  GeneratorCursor(std::vector<Column> columns, Generator gen)
      : RowCursor(std::move(columns)), gen_(std::move(gen)) {}

  StatusOr<bool> Next(std::vector<Value>* row) override {
    if (done_) return false;
    HERMES_ASSIGN_OR_RETURN(bool more, gen_(row));
    if (!more) done_ = true;
    return more;
  }

 private:
  Generator gen_;
  bool done_ = false;
};

}  // namespace hermes::sql

#endif  // HERMES_SQL_CURSOR_H_
