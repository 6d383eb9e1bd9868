#ifndef INSTANTDB_QUERY_SESSION_H_
#define INSTANTDB_QUERY_SESSION_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/options.h"
#include "db/database.h"
#include "query/ast.h"
#include "query/result.h"

namespace instantdb {

class Cursor;
class PreparedStatement;

/// Case-insensitive table resolution; with `allow_prefix`, a name may be a
/// prefix of the real table name (the paper's `P.LOCATION` for PERSON).
const TableDef* ResolveTableName(const Catalog& catalog,
                                 const std::string& name, bool allow_prefix);
/// Case-insensitive column resolution; -1 when absent.
int ResolveColumnName(const Schema& schema, const std::string& name);

/// \brief SQL session: executes statements under a declared purpose.
///
/// The purpose mechanism is §II of the paper: "The accuracy level k is
/// chosen such that it reflects the declared purpose for querying the
/// data." A purpose binds each degradable attribute to one accuracy level;
/// queries then run unchanged SQL whose σ and π operators are evaluated at
/// those levels. Attributes without a binding default to level 0 (full
/// accuracy), which makes a session without purposes behave like a
/// traditional DBMS over the still-accurate subset of the data.
class Session {
 public:
  explicit Session(Database* db) : db_(db) {}

  /// Parses and executes one statement, materializing the full result: the
  /// scan workers project every qualifying row straight into the result
  /// (rows in sequential-scan order). Prefer ExecuteCursor for reads whose
  /// result may be large.
  Result<QueryResult> Execute(const std::string& sql);

  /// Scalable read entry point: parses one statement and opens a pull-based
  /// cursor over its result. Non-aggregate SELECTs stream row-at-a-time with
  /// bounded memory; aggregates and DML execute eagerly and stream the
  /// (small) materialized result.
  Result<std::unique_ptr<Cursor>> ExecuteCursor(const std::string& sql);

  /// Parses one statement (with optional `?` parameter markers) into a
  /// reusable handle: bind parameters, execute many times without
  /// re-parsing. See query/prepared_statement.h.
  Result<std::unique_ptr<PreparedStatement>> Prepare(const std::string& sql);

  /// Programmatic equivalent of DECLARE PURPOSE (also activates it).
  Status DeclarePurpose(const std::string& name,
                        const std::vector<DeclarePurposeAst::Clause>& clauses);
  /// Re-activates a previously declared purpose.
  Status UsePurpose(const std::string& name);
  /// Deactivates any purpose: back to full-accuracy defaults.
  void ClearPurpose() { active_.clear(); }
  const std::string& active_purpose() const { return active_; }

  /// Accuracy level in effect for `column` of `table` (0 when unbound).
  int AccuracyFor(TableId table, int column) const;

  /// Session read options (include_coarser toggles the paper's §IV relaxed
  /// semantics); `use_indexes` lets benchmarks force full scans.
  ReadOptions& read_options() { return read_options_; }
  bool use_indexes() const { return use_indexes_; }
  void set_use_indexes(bool v) { use_indexes_ = v; }

  /// Scan fan-out configuration for this session's SELECTs (parallelism 0 =
  /// match the database's worker pool). Options are captured when a cursor
  /// opens; changing them mid-cursor affects only later statements.
  ScanOptions& scan_options() { return scan_options_; }

  Database* db() const { return db_; }

 private:
  Database* const db_;
  /// purpose -> (table id, column idx) -> level.
  std::map<std::string, std::map<std::pair<TableId, int>, int>> purposes_;
  std::string active_;
  ReadOptions read_options_;
  ScanOptions scan_options_;
  bool use_indexes_ = true;
};

}  // namespace instantdb

#endif  // INSTANTDB_QUERY_SESSION_H_
