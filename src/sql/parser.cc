#include "sql/parser.h"

#include <array>
#include <cmath>

#include "sql/settings.h"

namespace hermes::sql {

namespace {

/// The shared location suffix, anchored to a token ("near end of input"
/// for the kEnd sentinel).
std::string At(const Token& t) {
  return ErrorLocation(t.position, t.kind == TokenKind::kEnd ? "" : t.text);
}

/// Cursor over the token stream with convenience expectations.
class TokenCursor {
 public:
  explicit TokenCursor(const std::vector<Token>& tokens) : tokens_(tokens) {}

  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Next() { return tokens_[pos_++]; }
  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }

  Status ExpectKeyword(const std::string& kw) {
    const Token& t = Next();
    if (t.kind != TokenKind::kIdentifier || t.text != kw) {
      return Status::InvalidArgument("expected " + kw + At(t));
    }
    return Status::OK();
  }

  StatusOr<std::string> ExpectIdentifier() {
    const Token& t = Next();
    if (t.kind != TokenKind::kIdentifier) {
      return Status::InvalidArgument("expected identifier" + At(t));
    }
    return t.text;
  }

  Status Expect(TokenKind kind, const char* what) {
    const Token& t = Next();
    if (t.kind != kind) {
      return Status::InvalidArgument(std::string("expected ") + what + At(t));
    }
    return Status::OK();
  }

  bool Accept(TokenKind kind) {
    if (Peek().kind == kind) {
      ++pos_;
      return true;
    }
    return false;
  }

 private:
  const std::vector<Token>& tokens_;
  size_t pos_ = 0;
};

Value NumberValue(const Token& t) {
  // Integer spellings beyond int64 range fall back to double: the cast
  // would be UB, and the double carries the magnitude faithfully anyway.
  if (t.is_integer && std::abs(t.number) <= 9.0e18) {
    return Value::Int(static_cast<int64_t>(t.number));
  }
  return Value::Double(t.number);
}

/// A number literal or a `$N` placeholder.
StatusOr<ScalarExpr> ExpectScalar(TokenCursor* cur, Statement* stmt) {
  const Token& t = cur->Next();
  if (t.kind == TokenKind::kNumber) {
    return ScalarExpr::Literal(NumberValue(t), t);
  }
  if (t.kind == TokenKind::kParam) {
    stmt->num_params = std::max(stmt->num_params, t.param_index);
    return ScalarExpr::Placeholder(t);
  }
  return Status::InvalidArgument("expected number or $N placeholder" + At(t));
}

/// A dotted setting name ("hermes.threads"), canonical lower-case.
StatusOr<std::string> ExpectSettingName(TokenCursor* cur, size_t* pos) {
  const Token& first = cur->Peek();
  HERMES_ASSIGN_OR_RETURN(std::string name, cur->ExpectIdentifier());
  *pos = first.position;
  while (cur->Accept(TokenKind::kDot)) {
    HERMES_ASSIGN_OR_RETURN(std::string part, cur->ExpectIdentifier());
    name += "." + part;
  }
  return Settings::Canonical(name);
}

StatusOr<Statement> ParseOne(TokenCursor* cur) {
  Statement stmt;
  const Token& head_tok = cur->Peek();
  HERMES_ASSIGN_OR_RETURN(std::string head, cur->ExpectIdentifier());

  if (head == "CREATE") {
    HERMES_RETURN_NOT_OK(cur->ExpectKeyword("MOD"));
    stmt.kind = Statement::Kind::kCreateMod;
    HERMES_ASSIGN_OR_RETURN(stmt.mod, cur->ExpectIdentifier());
  } else if (head == "DROP") {
    HERMES_RETURN_NOT_OK(cur->ExpectKeyword("MOD"));
    stmt.kind = Statement::Kind::kDropMod;
    HERMES_ASSIGN_OR_RETURN(stmt.mod, cur->ExpectIdentifier());
  } else if (head == "LOAD") {
    HERMES_RETURN_NOT_OK(cur->ExpectKeyword("MOD"));
    stmt.kind = Statement::Kind::kLoadMod;
    HERMES_ASSIGN_OR_RETURN(stmt.mod, cur->ExpectIdentifier());
    HERMES_RETURN_NOT_OK(cur->ExpectKeyword("FROM"));
    const Token& t = cur->Next();
    if (t.kind != TokenKind::kString) {
      return Status::InvalidArgument("expected 'path'" + At(t));
    }
    stmt.path = t.text;
  } else if (head == "INSERT") {
    HERMES_RETURN_NOT_OK(cur->ExpectKeyword("INTO"));
    stmt.kind = Statement::Kind::kInsert;
    HERMES_ASSIGN_OR_RETURN(stmt.mod, cur->ExpectIdentifier());
    HERMES_RETURN_NOT_OK(cur->ExpectKeyword("VALUES"));
    do {
      HERMES_RETURN_NOT_OK(cur->Expect(TokenKind::kLParen, "("));
      std::array<ScalarExpr, 4> row{};
      for (int k = 0; k < 4; ++k) {
        HERMES_ASSIGN_OR_RETURN(row[k], ExpectScalar(cur, &stmt));
        if (k < 3) HERMES_RETURN_NOT_OK(cur->Expect(TokenKind::kComma, ","));
      }
      HERMES_RETURN_NOT_OK(cur->Expect(TokenKind::kRParen, ")"));
      stmt.rows.push_back(std::move(row));
    } while (cur->Accept(TokenKind::kComma));
  } else if (head == "SET") {
    // SET hermes.<setting> = value (PostgreSQL-style run-time setting).
    stmt.kind = Statement::Kind::kSet;
    HERMES_ASSIGN_OR_RETURN(stmt.setting,
                            ExpectSettingName(cur, &stmt.setting_pos));
    HERMES_RETURN_NOT_OK(cur->Expect(TokenKind::kEquals, "="));
    const Token& v = cur->Peek();
    if (v.kind == TokenKind::kNumber || v.kind == TokenKind::kParam) {
      HERMES_ASSIGN_OR_RETURN(stmt.set_value, ExpectScalar(cur, &stmt));
    } else if (v.kind == TokenKind::kString) {
      cur->Next();
      stmt.set_value = ScalarExpr::Literal(Value::Str(v.text), v);
    } else if (v.kind == TokenKind::kIdentifier) {
      // Boolean spellings a la postgresql.conf: on/off/true/false.
      cur->Next();
      if (v.text == "ON" || v.text == "TRUE") {
        stmt.set_value = ScalarExpr::Literal(Value::Int(1), v);
      } else if (v.text == "OFF" || v.text == "FALSE") {
        stmt.set_value = ScalarExpr::Literal(Value::Int(0), v);
      } else {
        stmt.set_value =
            ScalarExpr::Literal(Value::Str(Settings::Canonical(v.text)), v);
      }
    } else {
      return Status::InvalidArgument("expected setting value" + At(v));
    }
  } else if (head == "SHOW") {
    // SHOW hermes.<setting> | SHOW ALL | SHOW STATS | SHOW SERVICE STATS.
    stmt.kind = Statement::Kind::kShow;
    HERMES_ASSIGN_OR_RETURN(stmt.setting,
                            ExpectSettingName(cur, &stmt.setting_pos));
    if (stmt.setting == "service" &&
        cur->Peek().kind == TokenKind::kIdentifier) {
      // The two-word service pseudo-target, canonicalized with a dot so
      // it cannot collide with a registered setting name.
      HERMES_RETURN_NOT_OK(cur->ExpectKeyword("STATS"));
      stmt.setting = "service.stats";
    }
  } else if (head == "FLUSH") {
    // FLUSH: wait until every previously queued INSERT is applied and
    // published (a no-op acknowledgment for synchronous-ingest sessions).
    stmt.kind = Statement::Kind::kFlush;
  } else if (head == "CHECKPOINT") {
    // CHECKPOINT: persist the catalog and truncate the covered WAL
    // prefix (service sessions on a WAL-enabled server only).
    stmt.kind = Statement::Kind::kCheckpoint;
  } else if (head == "SELECT") {
    stmt.kind = Statement::Kind::kSelect;
    const Token& fn = cur->Peek();
    HERMES_ASSIGN_OR_RETURN(stmt.function, cur->ExpectIdentifier());
    stmt.function_pos = fn.position;
    HERMES_RETURN_NOT_OK(cur->Expect(TokenKind::kLParen, "("));
    const Token& m = cur->Peek();
    stmt.mod_pos = m.position;
    if (m.kind == TokenKind::kParam) {
      cur->Next();
      stmt.mod_param = m.param_index;
      stmt.num_params = std::max(stmt.num_params, m.param_index);
    } else {
      HERMES_ASSIGN_OR_RETURN(stmt.mod, cur->ExpectIdentifier());
    }
    while (cur->Accept(TokenKind::kComma)) {
      HERMES_ASSIGN_OR_RETURN(ScalarExpr arg, ExpectScalar(cur, &stmt));
      stmt.args.push_back(std::move(arg));
    }
    HERMES_RETURN_NOT_OK(cur->Expect(TokenKind::kRParen, ")"));
  } else {
    return Status::InvalidArgument("unknown statement " + head + At(head_tok));
  }
  return stmt;
}

}  // namespace

StatusOr<Statement> ParseStatement(const std::string& sql) {
  HERMES_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  TokenCursor cur(tokens);
  while (cur.Accept(TokenKind::kSemicolon)) {
  }
  HERMES_ASSIGN_OR_RETURN(Statement stmt, ParseOne(&cur));
  while (cur.Accept(TokenKind::kSemicolon)) {
  }
  if (!cur.AtEnd()) {
    return Status::InvalidArgument("trailing input after statement" +
                                   At(cur.Peek()));
  }
  return stmt;
}

StatusOr<std::vector<Statement>> ParseScript(const std::string& sql) {
  HERMES_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  TokenCursor cur(tokens);
  std::vector<Statement> out;
  while (!cur.AtEnd()) {
    // Empty statements (";;", trailing ';') are skipped, per psql.
    if (cur.Accept(TokenKind::kSemicolon)) continue;
    HERMES_ASSIGN_OR_RETURN(Statement stmt, ParseOne(&cur));
    cur.Accept(TokenKind::kSemicolon);
    out.push_back(std::move(stmt));
  }
  return out;
}

}  // namespace hermes::sql
