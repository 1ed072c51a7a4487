#ifndef NIMBLE_RELATIONAL_EXECUTOR_H_
#define NIMBLE_RELATIONAL_EXECUTOR_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "relational/sql_ast.h"
#include "relational/table.h"

namespace nimble {
namespace relational {

class Database;

/// Execution statistics, surfaced so the federation experiments (E3) can
/// demonstrate index usage and scan volumes inside the source engine.
struct ExecStats {
  size_t rows_scanned = 0;   ///< base rows read (post-index pre-filter).
  size_t rows_returned = 0;
  bool used_index = false;
  std::string index_name;
};

/// A query result: column names plus rows of scalars.
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<Row> rows;
  ExecStats stats;
};

/// Executes a SELECT against `db`. The executor implements a
/// straightforward pipeline — index-assisted base access, hash/nested-loop
/// joins, filter, hash aggregation, sort, limit, projection — enough to be
/// a faithful "real RDBMS" endpoint for the mediator's generated SQL.
Result<ResultSet> ExecuteSelect(const Database& db, const SelectStmt& stmt);

/// UPDATE and DELETE select their rows through the same index-or-scan access
/// path as a single-table SELECT, and are atomic: an error (unknown column,
/// type mismatch, duplicate primary key) leaves the table unchanged.
/// `rows_returned` counts the rows changed; `rows_scanned`/`used_index`
/// describe the access as for SELECT.
Result<ResultSet> ExecuteUpdate(Database& db, const UpdateStmt& stmt);
Result<ResultSet> ExecuteDelete(Database& db, const DeleteStmt& stmt);

/// SQL LIKE pattern matching ('%' = any run, '_' = any one char).
bool LikeMatch(const std::string& text, const std::string& pattern);

}  // namespace relational
}  // namespace nimble

#endif  // NIMBLE_RELATIONAL_EXECUTOR_H_
