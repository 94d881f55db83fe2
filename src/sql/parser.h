#ifndef HERMES_SQL_PARSER_H_
#define HERMES_SQL_PARSER_H_

#include <array>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "sql/tokenizer.h"
#include "sql/value.h"

namespace hermes::sql {

/// \brief A scalar argument position: either a typed literal or a `$N`
/// prepared-statement placeholder, plus the source location for errors.
///
/// Numeric literals keep their spelled type: `4` parses as `Value::Int`,
/// `4.0` / `2e3` as `Value::Double` — so the settings registry can tell an
/// integral knob from a fractional one without re-inspecting text.
struct ScalarExpr {
  Value value;       ///< The literal (null while `param > 0`).
  int param = 0;     ///< 0 = literal; >= 1 = placeholder `$param`.
  size_t pos = 0;    ///< Byte offset in the statement text.
  std::string text;  ///< Raw token text (for "near 'tok'" errors).

  static ScalarExpr Literal(Value v, const Token& t) {
    ScalarExpr e;
    e.value = std::move(v);
    e.pos = t.position;
    e.text = t.text;
    return e;
  }
  static ScalarExpr Placeholder(const Token& t) {
    ScalarExpr e;
    e.param = t.param_index;
    e.pos = t.position;
    e.text = t.text;
    return e;
  }
};

/// \brief Parsed statement of the Hermes SQL dialect.
///
/// Supported forms (keywords case-insensitive; any scalar — and the MOD
/// position of a SELECT — may be a `$N` placeholder, bound later via
/// `Session::Prepare`):
///   CREATE MOD name;
///   DROP MOD name;
///   LOAD MOD name FROM 'file.csv';
///   INSERT INTO name VALUES (obj, t, x, y) [, (obj, t, x, y)]...;
///   SELECT STATS(D);                          -- D names a MOD (or `$N`)
///   SELECT RANGE(D, Wi, We);
///   SELECT S2T(D[, sigma[, eps]]);            -- defaults from settings
///   SELECT S2T_MEMBERS(D[, sigma[, eps]]);    -- one row per member
///   SELECT QUT(D, Wi, We, tau, delta, t, d, gamma);
///   SET hermes.<setting> = value;             -- number|'string'|on|off
///   SHOW hermes.<setting>; | SHOW ALL; | SHOW STATS;
///   SHOW SERVICE STATS;                       -- service-layer counters
///   FLUSH;                                    -- drain queued async ingest
///   CHECKPOINT;                               -- persist catalog + truncate WAL
struct Statement {
  enum class Kind {
    kCreateMod,
    kDropMod,
    kLoadMod,
    kInsert,
    kSelect,
    kSet,
    kShow,
    kFlush,
    kCheckpoint,
  };
  Kind kind = Kind::kSelect;
  std::string mod;       ///< Target MOD name (upper-cased).
  /// SELECT only: >= 1 when the MOD position is a `$N` placeholder (bound
  /// to a string value at execution); 0 when `mod` names it directly.
  int mod_param = 0;
  size_t mod_pos = 0;    ///< Byte offset of the SELECT MOD token.
  std::string path;      ///< LOAD source file.
  std::vector<std::array<ScalarExpr, 4>> rows;  ///< INSERT (obj,t,x,y) tuples.
  std::string function;  ///< SELECT function name.
  size_t function_pos = 0;  ///< Byte offset of the SELECT function token.
  std::vector<ScalarExpr> args;  ///< SELECT scalar arguments.
  std::string setting;   ///< SET/SHOW name, canonical lower-case
                         ///< ("hermes.threads"); SHOW also accepts the
                         ///< pseudo-names "all", "stats", and
                         ///< "service.stats" (spelled SERVICE STATS).
  size_t setting_pos = 0;   ///< Byte offset of the setting name token.
  ScalarExpr set_value;     ///< SET right-hand side.
  int num_params = 0;    ///< Highest `$N` placeholder index (0 = none).
  /// The statement's source text (for a script, just this statement's
  /// span), so a backend can re-issue it verbatim — the shard
  /// coordinator's broadcast and scatter paths.
  std::string text;
};

/// Parses exactly one statement (trailing ';' optional).
StatusOr<Statement> ParseStatement(const std::string& sql);

/// Parses a ';'-separated script into statements. Empty statements
/// (stray ';' runs) are skipped.
StatusOr<std::vector<Statement>> ParseScript(const std::string& sql);

}  // namespace hermes::sql

#endif  // HERMES_SQL_PARSER_H_
